"""One operation of each benchmark workload, run and checked as the benchmark would.

``perfbench/`` is loaded from source by file path, so this test writes
nothing there; each workload sets up in its own temporary directory. A
change that breaks a name or an output the benchmark relies on fails
here.
"""

from __future__ import annotations

import importlib
import json
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(path: Path) -> types.ModuleType:
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads = _load(PERFBENCH / "workloads.py")
spans = _load(PERFBENCH / "spans.py")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_passes_its_check(name, tmp_path):
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    workload = workloads.WORKLOADS[name](0, tmp_path, expected)
    workload.setup()
    workload.oracle = _load(ROOT / "tests" / "oracle.py")
    op = next(workload.ops())
    workload.prepare(op)
    assert workload.check(op, workload.run(op)) is None


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in spans.TARGETS])
def test_every_traced_target_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"routeclubs.{module}"), attr))
