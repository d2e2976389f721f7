"""Tier-2 check: what tier-1 cannot afford to run, with the standard library only.

    python3 bench/verify.py

It reruns the full calibration scan, as ``routeclubs calibrate --out DIR``
into a temporary directory, and requires both files it writes to equal
the bundled ones in ``src/routeclubs/data``: the scenario byte for byte,
the report in everything but ``search.elapsed_seconds``. While that
subprocess runs, it judges every point of the calibration grid in this
process and requires each verdict (q: quick Nash rejection, r: rejected
at a later stage, a: accepted) to equal the one ``perfbench/expected.json``
records; the grid order and the verdict comparison are the
``calibration_sweep`` workload's own, read from ``perfbench/workloads.py``.
It prints each part's wall time and the total, which is the longer part's
on two cores. It writes nothing outside the temporary directory and exits
1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "routeclubs" / "data"
PERFBENCH = ROOT / "perfbench"
CALIBRATE = [sys.executable, "-m", "routeclubs.cli", "calibrate", "--out"]


def differences(fresh: dict, bundled: dict, prefix: str = "") -> list[str]:
    """Keys whose values differ between two JSON objects, nested objects key by key."""
    found = []
    for key in sorted(fresh.keys() | bundled.keys()):
        a, b = fresh.get(key), bundled.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            found += differences(a, b, f"{prefix}{key}.")
        elif a != b:
            found.append(f"calibration_report.json: {prefix}{key} is {a!r}, bundled {b!r}")
    return found


def calibration_files() -> list[str]:
    """Differences between a fresh ``calibrate`` run's files and the bundled ones."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "calibration"
        run = subprocess.run(CALIBRATE + [str(out)], env=env, capture_output=True, text=True)
        if run.returncode != 0:
            return [f"calibrate exited {run.returncode}: {run.stderr.strip()}"]
        problems = []
        name = "canonical_scenario.json"
        if (out / name).read_bytes() != (DATA / name).read_bytes():
            problems.append(f"{name} differs from the bundled file")
        fresh, bundled = (json.loads((d / "calibration_report.json").read_text())
                          for d in (out, DATA))
    for report in (fresh, bundled):
        report.get("search", {}).pop("elapsed_seconds", None)
    return problems + differences(fresh, bundled)


def grid_verdicts() -> list[str]:
    """Grid points whose verdict differs from the one ``perfbench/expected.json`` records."""
    sys.path.insert(0, str(SRC))
    from routeclubs.calibration import DEFAULT_GRID, evaluate_candidate
    from routeclubs.traffic import ScenarioConfig

    # loaded by path, as tests/test_benchmark_smoke.py does: nothing is written there
    workloads = types.ModuleType("workloads")
    path = PERFBENCH / "workloads.py"
    exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    grid = expected["grid"]
    if grid["values"] != {n: list(v) for n, v in DEFAULT_GRID.items()}:
        return ["the recorded grid is not calibration.DEFAULT_GRID"]
    sweep = workloads.CalibrationSweep(0, None, expected)  # check() reads only expected
    wrong = []
    for index in range(len(grid["verdicts"])):
        cfg = replace(ScenarioConfig(), **workloads.grid_point(grid, index))
        error = sweep.check((index, cfg), evaluate_candidate(cfg))
        if error is not None:
            wrong.append(error)
    return wrong[:20] + ([f"... and {len(wrong) - 20} more"] if len(wrong) > 20 else [])


def timed(check) -> tuple[list[str], float]:
    started = time.perf_counter()
    problems = check()
    return problems, time.perf_counter() - started


def main() -> int:
    started = time.perf_counter()
    with ThreadPoolExecutor(1) as pool:
        # the thread only waits on the calibrate subprocess, so the two
        # scans run side by side, one per core
        files = pool.submit(timed, calibration_files)
        verdicts = timed(grid_verdicts)
        results = (("calibration files", *files.result()), ("grid verdicts", *verdicts))
    for label, problems, seconds in results:
        print(f"{label}: {'FAIL' if problems else 'ok'} ({seconds:.1f} s wall)")
        for line in problems:
            print(f"  {line}")
    print(f"total: {time.perf_counter() - started:.1f} s wall")
    return 1 if any(problems for _, problems, _ in results) else 0


if __name__ == "__main__":
    raise SystemExit(main())
