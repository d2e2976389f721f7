from __future__ import annotations

import csv

import pytest

from routeclubs import (
    PreconditionError,
    action_from_string,
    build_club_graph,
    classify_all,
    export_dot,
    export_scatter,
    se_candidates,
)


class TestExportDot:
    def test_fixture_graph_rendering(self, fixture_complete, tmp_path):
        graph = build_club_graph(fixture_complete, {1, 5, 6})
        se = se_candidates(fixture_complete, graph)
        path = tmp_path / "graph.dot"
        export_dot(graph, path, se_nodes=se)
        text = path.read_text()
        assert text.startswith("digraph club_dynamics {")
        assert text.count(" -> ") == 3
        assert '"{1,5,6}" [label="{1,5,6}", shape=box' in text
        assert '"{0,1,5,6}" [label="{0,1,5,6}", peripheries=2, style=filled, fillcolor=palegreen]' in text
        assert 'fillcolor=mistyrose' in text  # the internally unstable leaf
        assert '[label="7"]' in text

    def test_single_node_graph(self, fixture_complete, tmp_path):
        graph = build_club_graph(fixture_complete, {0, 1, 5, 6, 7})
        path = tmp_path / "single.dot"
        export_dot(graph, path)
        text = path.read_text()
        assert text.count(" -> ") == 0
        assert text.count("label=") == 1

    def test_re_export_is_byte_identical(self, adaptive_matrix, tmp_path):
        graph = build_club_graph(adaptive_matrix, {7, 8, 9})
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        export_dot(graph, a)
        export_dot(graph, b)
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def scatter_rows(adaptive_matrix, tmp_path_factory):
    path = tmp_path_factory.mktemp("scatter") / "rows.csv"
    classification = classify_all(adaptive_matrix)
    export_scatter(adaptive_matrix, classification, path)
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle)), classification


class TestExportScatter:
    def test_one_row_per_action(self, scatter_rows):
        rows, _ = scatter_rows
        assert len(rows) == 1024

    def test_x0_row_is_the_normalization_anchor(self, scatter_rows):
        rows, _ = scatter_rows
        first = rows[0]
        assert first["action"] == "0000000000"
        assert first["q1"] == "0"
        assert first["t0"] == "1.000000"
        assert first["t1"] == ""
        assert first["all_mean"] == "1.000000"

    def test_class_counts_match_classification(self, scatter_rows):
        rows, classification = scatter_rows
        from collections import Counter
        csv_counts = Counter(row["class"] for row in rows)
        cls_counts = Counter(c.tag.value for c in classification.values())
        assert csv_counts == cls_counts

    def test_club_flags_match(self, scatter_rows, adaptive_matrix):
        rows, classification = scatter_rows
        for row in rows:
            assert len(row["action"]) == adaptive_matrix.n_av
            action = action_from_string(row["action"])
            assert row["club_found"] == str(int(classification[action].club_found))

    def test_route_counts_sum_to_players(self, scatter_rows):
        rows, _ = scatter_rows
        for row in rows:
            assert int(row["q0"]) + int(row["q1"]) == 15

    def test_incomplete_matrix_is_rejected(self, fixture_partial, tmp_path):
        from routeclubs import IncompleteMatrixError
        with pytest.raises(IncompleteMatrixError):
            export_scatter(fixture_partial, {}, tmp_path / "x.csv")

    def test_missing_classification_is_rejected(self, fixture_complete, tmp_path):
        with pytest.raises(PreconditionError, match="classification lacks"):
            export_scatter(fixture_complete, {}, tmp_path / "x.csv")
