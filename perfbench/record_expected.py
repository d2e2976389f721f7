"""Record the outputs the benchmark checks ops against into perfbench/expected.json.

    python3 perfbench/record_expected.py

Run it only on a commit whose outputs are known good: every later run
of the benchmark compares against what it writes. It takes a few
minutes, most of them spent judging every point of the calibration grid.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

from run import EXPECTED, OUT, SRC, load_oracle
import workloads


def main() -> int:
    sys.path.insert(0, str(SRC))
    from routeclubs import calibration, formation, traffic
    from routeclubs.matrixio import load_matrix

    oracle = load_oracle()
    workdir = OUT / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        pipeline = workloads.CanonicalPipeline(0, workdir, {})
        pipeline.setup()
        argvs = next(pipeline.ops())
        pipeline.prepare(argvs)
        if pipeline.run(argvs) != [0] * len(argvs):
            raise SystemExit("canonical pipeline failed")
        digests = {f: workloads.sha256_file(workdir / f) for f in pipeline.FILES}
        report = json.loads((workdir / "report.json").read_text())
        g = load_matrix(workdir / "matrix.mtx")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    av_ids = list(g.av_ids)
    improving = [oracle.improving(g, x) for x in range(1 << g.n_av)]
    cfg = traffic.canonical_scenario()
    leaders = sorted({p for c in report["clubs_at_x0"] for p in c})
    policies = {"first": formation.TARGET_FIRST, "stable": formation.TARGET_STABLE}
    formation_digests = {
        f"{leader}:{label}": workloads.formation_digest(formation.run_formation(
            cfg, g, formation.FormationPolicy(leader=leader, target_selection=policy)))
        for leader in leaders for label, policy in policies.items()
    }

    grid = {"names": sorted(calibration.DEFAULT_GRID),
            "values": {k: list(v) for k, v in calibration.DEFAULT_GRID.items()}}
    base = traffic.ScenarioConfig()
    n_points = 1
    for values in grid["values"].values():
        n_points *= len(values)
    verdicts = []
    for index in range(n_points):
        candidate = calibration.evaluate_candidate(
            replace(base, **workloads.grid_point(grid, index)))
        verdicts.append("a" if candidate.accepted else "r" if candidate.x0_nash else "q")
    grid["verdicts"] = "".join(verdicts)

    expected = {
        "canonical_pipeline": digests,
        "clubs_at_x0": report["clubs_at_x0"],
        "strong_actions": [x for x, found in enumerate(improving) if not found],
        "improving_digests": [workloads.improving_digest(av_ids, found) for found in improving],
        "formation_digests": formation_digests,
        "grid": grid,
    }
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}: {len(verdicts)} grid verdicts, "
          f"{verdicts.count('a')} accepted, {verdicts.count('q')} quick rejections")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
