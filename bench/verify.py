"""Tier-2 check: what tier-1 cannot afford to run, with the standard library only.

    python3 bench/verify.py

It runs the full calibration scan once, in this process, as ``routeclubs
calibrate --out DIR`` into a temporary directory, and keeps the report of
every grid point it judges. The two files the scan writes must equal the
bundled ones in ``src/routeclubs/data``: the scenario byte for byte, the
report in all but ``search.elapsed_seconds``. The reports must be one per
point of the grid ``perfbench/expected.json`` records, in grid order, each
with the recorded verdict (q: quick Nash rejection, r: rejected later,
a: accepted), as the ``calibration_sweep`` workload's own check judges it.
It prints the scan's wall time and both verdicts, writes only into the
temporary directory and exits 1 on any difference.
"""

import contextlib
import io
import json
import sys
import tempfile
import time
import types
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "routeclubs" / "data"
PERFBENCH = SRC.parent / "perfbench"


def scan(calibration, cli, out: Path) -> tuple[int, list]:
    """Run ``calibrate --out`` in this process; return its exit code and every report it judged."""
    reports = []
    judge = calibration.evaluate_candidate

    def keep(cfg):
        reports.append(judge(cfg))
        return reports[-1]

    calibration.evaluate_candidate = keep
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["calibrate", "--out", str(out)])
    finally:
        calibration.evaluate_candidate = judge
    return code, reports


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


def calibration_files(out: Path) -> list[str]:
    """Differences between the files the scan wrote into ``out`` and the bundled ones."""
    problems = []
    name = "canonical_scenario.json"
    if (out / name).read_bytes() != (DATA / name).read_bytes():
        problems.append(f"{name} differs from the bundled file")
    fresh, bundled = (json.loads((d / "calibration_report.json").read_text()) for d in (out, DATA))
    for report in (fresh, bundled):
        report.get("search", {}).pop("elapsed_seconds", None)
    return problems + differences(fresh, bundled)


def grid_verdicts(calibration, reports: list) -> list[str]:
    """Reports that are missing, for another point, or whose verdict differs from the record."""
    # loaded by path, as tests/test_benchmark_smoke.py does: nothing is written there
    workloads = types.ModuleType("workloads")
    path = PERFBENCH / "workloads.py"
    exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    grid = expected["grid"]
    if grid["values"] != {n: list(v) for n, v in calibration.DEFAULT_GRID.items()}:
        return ["the recorded grid is not calibration.DEFAULT_GRID"]
    if len(reports) != len(grid["verdicts"]):
        return [f"the scan judged {len(reports)} grid points, the record holds {len(grid['verdicts'])}"]
    sweep = workloads.CalibrationSweep(0, None, expected)  # check() reads only expected
    wrong = []
    for index, report in enumerate(reports):
        cfg = replace(calibration.ScenarioConfig(), **workloads.grid_point(grid, index))
        error = sweep.check((index, cfg), report)
        if error is not None:
            wrong.append(f"report {index}: {error}")
    return wrong[:20] + ([f"... and {len(wrong) - 20} more"] if len(wrong) > 20 else [])


def main() -> int:
    sys.path.insert(0, str(SRC))
    from routeclubs import calibration, cli
    if Path(cli.__file__).resolve().parent != SRC / "routeclubs":
        raise SystemExit(f"routeclubs was imported from {cli.__file__}, not from {SRC}")
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "calibration"
        code, reports = scan(calibration, cli, out)
        print(f"calibration scan: {len(reports)} grid points, {time.perf_counter() - started:.1f} s wall")
        files = calibration_files(out) if code == 0 else [f"calibrate exited {code}"]
    verdicts = grid_verdicts(calibration, reports)
    for label, problems in (("calibration files", files), ("grid verdicts", verdicts)):
        print(f"{label}: {'FAIL' if problems else 'ok'}")
        for line in problems:
            print(f"  {line}")
    return 1 if files or verdicts else 0


if __name__ == "__main__":
    raise SystemExit(main())
