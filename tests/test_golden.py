"""Byte-for-byte check of the CLI pipeline against checked-in outputs.

Each golden directory holds the five files that ``generate -> analyze ->
graph -> form -> scatter`` writes. ``tests/golden/`` runs the bundled
scenario, where every payoff is a whole number of seconds.
``tests/golden_q03/`` runs the bundled scenario at a payoff quantum of
0.3 s (its ``scenario.json``, passed to ``generate`` and ``form``) and
forms under the stability-seeking policy; most of its payoffs are not
whole numbers, so it also shows changes in the order of float
operations. A refactor that keeps behaviour keeps these bytes. A
deliberate model change rewrites them with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from routeclubs.cli import main

HERE = Path(__file__).parent
FILES = ("matrix.mtx", "report.json", "clubs.dot", "days.jsonl", "actions.csv")
# golden directory -> (scenario file in it, or None for the bundled one; form policy)
SETS = {"golden": (None, "first"), "golden_q03": ("scenario.json", "stable")}


def regenerate(dest: Path, config: Path | None = None, policy: str = "first") -> None:
    """Run the pipeline through ``cli.main``, writing into ``dest``."""
    m, report, dot, days, csv = (str(dest / f) for f in FILES)
    scenario = ["--config", str(config)] if config else []
    steps = (
        ["generate", *scenario, "--out", m],
        ["analyze", "--matrix", m, "--out", report],
        ["graph", "--matrix", m, "--out", dot],
        ["form", *scenario, "--matrix", m, "--policy", policy, "--out", days],
        ["scatter", "--matrix", m, "--out", csv],
    )
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            assert main(argv) == 0, f"{argv[0]} failed"


def _regenerate_set(golden: str, dest: Path) -> Path:
    config, policy = SETS[golden]
    regenerate(dest, config and HERE / golden / config, policy)
    return dest


def _assert_identical(dest: Path, golden: str, name: str) -> None:
    assert (dest / name).read_bytes() == (HERE / golden / name).read_bytes(), (
        f"{name} differs from tests/{golden}/{name}"
    )


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> Path:
    return _regenerate_set("golden", tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def regenerated_q03(tmp_path_factory) -> Path:
    return _regenerate_set("golden_q03", tmp_path_factory.mktemp("golden_q03"))


@pytest.mark.parametrize("name", FILES)
def test_pipeline_output_is_byte_identical(regenerated, name):
    _assert_identical(regenerated, "golden", name)


@pytest.mark.parametrize("name", FILES)
def test_quantum_03_pipeline_output_is_byte_identical(regenerated_q03, name):
    _assert_identical(regenerated_q03, "golden_q03", name)


if __name__ == "__main__":
    for golden in SETS:
        _regenerate_set(golden, HERE / golden)
