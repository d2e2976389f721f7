from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routeclubs import canonical_scenario, load_matrix, save_matrix
from routeclubs.cli import main
from routeclubs.traffic import save_scenario


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory, adaptive_matrix):
    path = tmp_path_factory.mktemp("cli") / "matrix.mtx"
    save_matrix(adaptive_matrix, path)
    return path


class TestGenerate:
    def test_writes_complete_matrix(self, tmp_path, scenario, adaptive_matrix):
        cfg_path = tmp_path / "scenario.json"
        save_scenario(scenario, cfg_path)
        out = tmp_path / "out.mtx"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert load_matrix(out) == adaptive_matrix

    def test_mode_override(self, tmp_path):
        out = tmp_path / "static.mtx"
        assert main(["generate", "--mode", "static", "--out", str(out)]) == 0
        assert load_matrix(out).supply_mode == "static"

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b'{"av_ids": 5}', b"\xff{}"],
                             ids=["scalar_av_ids", "not_utf8"])
    def test_malformed_scenario_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", [
        "departure_headway", "free_flow_r0_to_j", "free_flow_r1_to_j", "free_flow_j_to_b",
        "saturation_headway", "payoff_quantum", "signal_offset"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"{field}": {value}}}')
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("field,value,name", [
        ("n_total", "15.0", "n_total"), ("n_total", "true", "n_total"),
        ("av_ids", "[0.5, 1, 2]", "av_ids[0]"), ("av_ids", "[0, true]", "av_ids[1]"),
        ("human_slot_period", "Infinity", "human_slot_period"),
        ("human_slot_period", "2.5", "human_slot_period")])
    def test_non_integer_field_exits_2(self, tmp_path, capsys, field, value, name):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"{field}": {value}}}')
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"error: scenario file {bad} is invalid: {name} must be an integer\n")

    def test_past_the_cap_exits_3(self, tmp_path, capsys, scenario):
        from dataclasses import replace
        from routeclubs import MAX_AV_PLAYERS
        n = MAX_AV_PLAYERS + 1
        cfg_path = tmp_path / "wide.json"
        save_scenario(replace(scenario, n_total=n + 4, av_ids=tuple(range(n))), cfg_path)
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 3
        assert f"cap of 2**{MAX_AV_PLAYERS}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


# one value of each JSON kind a scenario field might be mistyped as; ints
# stay small and lists short so that no run nears the enumeration cap
_ANY_VALUE = st.one_of(
    st.integers(-3, 40), st.floats(), st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=5), st.none(),
    st.lists(st.one_of(st.integers(-2, 20), st.floats(), st.booleans()), max_size=6),
)
_FUZZ_BASE = asdict(replace(canonical_scenario(), av_ids=tuple(range(6))))


@given(st.dictionaries(st.sampled_from(sorted(_FUZZ_BASE)), _ANY_VALUE, min_size=1))
@example({"n_total": 15.0})
@example({"av_ids": [0.5, 1, 2]})
@example({"departure_headway": 1e308})
@example({"payoff_quantum": 1e-310})
@settings(max_examples=300, deadline=None)
def test_mutated_scenario_exits_cleanly(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "scenario.json", Path(tmp) / "out.mtx"
        cfg_path.write_text(json.dumps({**_FUZZ_BASE, **mutations}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["generate", "--config", str(cfg_path), "--out", str(out)])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestAnalyze:
    def test_report(self, matrix_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["analyze", "--matrix", str(matrix_file),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["actions"] == 1024
        assert report["x0_is_nash"] is True
        assert report["clubs_at_x0"] == [[7, 8, 9]]
        assert sum(report["counts"].values()) == 1024

    def test_malformed_matrix_exits_2(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("nope\n")
        assert main(["analyze", "--matrix", str(bad)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["analyze", "--matrix", str(tmp_path / "absent.mtx")]) == 2

    def test_non_utf8_matrix_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_bytes(b"routeclubs-matrix 1\n\xff\xfe\n")
        assert main(["analyze", "--matrix", str(bad)]) == 2
        assert capsys.readouterr().err.count("\n") == 1


    @pytest.mark.parametrize("quantum", ["nan", "inf"])
    def test_non_finite_quantum_exits_2(self, matrix_file, tmp_path, capsys, quantum):
        bad = tmp_path / "bad.mtx"
        bad.write_text(matrix_file.read_text().replace("\nquantum 1\n", f"\nquantum {quantum}\n"))
        assert main(["analyze", "--matrix", str(bad)]) == 2
        assert capsys.readouterr().err == "error: quantum must be finite\n"


class TestGraph:
    def test_default_root_is_first_club(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "graph.dot"
        assert main(["graph", "--matrix", str(matrix_file), "--out", str(out)]) == 0
        assert "root [7, 8, 9]" in capsys.readouterr().out
        assert out.read_text().startswith("digraph")

    def test_explicit_root(self, matrix_file, tmp_path):
        out = tmp_path / "graph.dot"
        assert main(["graph", "--matrix", str(matrix_file),
                     "--root", "7,8,9", "--out", str(out)]) == 0

    def test_malformed_root_exits_3(self, matrix_file, tmp_path):
        assert main(["graph", "--matrix", str(matrix_file),
                     "--root", "a,b", "--out", str(tmp_path / "g.dot")]) == 3

    def test_non_strategic_root_exits_3(self, matrix_file, tmp_path, capsys):
        assert main(["graph", "--matrix", str(matrix_file),
                     "--root", "99", "--out", str(tmp_path / "g.dot")]) == 3
        assert "'99'" in capsys.readouterr().err


class TestForm:
    def test_writes_day_log(self, matrix_file, tmp_path):
        out = tmp_path / "days.jsonl"
        assert main(["form", "--matrix", str(matrix_file), "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["day"] == 0
        assert records[0]["action"] == "0000000000"
        assert records[1]["event"] == "club_deviates"
        assert records[-1]["event"] == "converged"

    def test_zero_max_days_exits_3(self, matrix_file, capsys):
        assert main(["form", "--matrix", str(matrix_file), "--max-days", "0"]) == 3
        assert capsys.readouterr().err == "error: max_days must be at least 1\n"

    def test_matrix_of_other_players_exits_3(self, matrix_file, tmp_path, scenario):
        from dataclasses import replace
        cfg_path = tmp_path / "narrow.json"
        save_scenario(replace(scenario, av_ids=(7, 8, 9)), cfg_path)
        assert main(["form", "--config", str(cfg_path), "--matrix", str(matrix_file),
                     "--leader", "7"]) == 3

    def test_matrix_of_another_scenario_exits_3(self, tmp_path, capsys, scenario,
                                                 static_matrix):
        # same players, but priced under static supply
        cfg_path, other = tmp_path / "scenario.json", tmp_path / "static.mtx"
        save_scenario(scenario, cfg_path)
        save_matrix(static_matrix, other)
        assert main(["form", "--config", str(cfg_path), "--matrix", str(other),
                     "--leader", "7"]) == 3
        assert capsys.readouterr().err == "error: payoff matrix does not match the scenario\n"

    def test_static_mode_exits_3(self, tmp_path, scenario):
        from routeclubs.traffic import static_variant
        cfg_path = tmp_path / "static.json"
        save_scenario(static_variant(scenario), cfg_path)
        assert main(["form", "--config", str(cfg_path)]) == 3


class TestScatter:
    def test_writes_csv(self, matrix_file, tmp_path):
        out = tmp_path / "scatter.csv"
        assert main(["scatter", "--matrix", str(matrix_file), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1025
        assert lines[0].startswith("action,q0,q1,t0,t1,t0_av,class,club_found")

    def test_zero_all_on_route_0_mean_exits_3(self, tmp_path, capsys):
        matrix = tmp_path / "zero.mtx"
        matrix.write_text("routeclubs-matrix 1\nn_players 1\nav_ids 0\nquantum 1\n"
                          "supply_mode static\npartial false\nactions 2\n---\n0 0\n1 -1\n")
        out = tmp_path / "scatter.csv"
        assert main(["scatter", "--matrix", str(matrix), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "all-on-route-0 action's mean travel time is zero" in err and err.count("\n") == 1
        assert not out.exists()
