"""Byte-for-byte check of the canonical CLI pipeline against checked-in outputs.

``tests/golden/`` holds the five files that ``generate -> analyze ->
graph -> form -> scatter`` writes for the bundled scenario. A refactor
that keeps behaviour keeps these bytes. A deliberate model change
rewrites them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from routeclubs.cli import main

GOLDEN = Path(__file__).parent / "golden"
FILES = ("matrix.mtx", "report.json", "clubs.dot", "days.jsonl", "actions.csv")


def regenerate(dest: Path) -> None:
    """Run the canonical pipeline through ``cli.main``, writing into ``dest``."""
    m, report, dot, days, csv = (str(dest / f) for f in FILES)
    steps = (
        ["generate", "--out", m],
        ["analyze", "--matrix", m, "--out", report],
        ["graph", "--matrix", m, "--out", dot],
        ["form", "--matrix", m, "--out", days],
        ["scatter", "--matrix", m, "--out", csv],
    )
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            assert main(argv) == 0, f"{argv[0]} failed"


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> Path:
    dest = tmp_path_factory.mktemp("golden")
    regenerate(dest)
    return dest


@pytest.mark.parametrize("name", FILES)
def test_pipeline_output_is_byte_identical(regenerated, name):
    assert (regenerated / name).read_bytes() == (GOLDEN / name).read_bytes(), (
        f"{name} differs from tests/golden/{name}"
    )


if __name__ == "__main__":
    regenerate(GOLDEN)
