"""Per-layer timings of routeclubs, written to ``BENCH_<label>.json``.

    python3 bench/layers.py --label NAME [--out DIR]

Run it from a checkout holding ``src/routeclubs`` and
``perfbench/speed.py``; the package is imported from that ``src``, so
the same script times any commit it is copied into. It uses the
standard library only.

Each layer is one call on fixed inputs:

- ``simulate``: one day of the canonical scenario, club {7, 8, 9} on
  route 1 under its own plan;
- ``generate_payoff_matrix_n10`` / ``_n12``: the canonical scenario, and
  the same scenario with strategic players 0..11;
- ``evaluate_candidate_quick_rejection``: the first point of the
  calibration grid whose all-on-route-0 action fails the quick Nash
  check, so the matrix is never built;
- ``evaluate_candidate_full``: the canonical point, which passes the
  quick check and is evaluated in full: matrix, clubs, strong actions
  and the formation replay;
- ``run_formation``: the canonical replay from ``default_leader``, on a
  matrix built once beforehand;
- ``classify_all_n10`` / ``_n12`` / ``_n14``: every joint action of the
  canonical matrix, of the n=12 one above and of the same scenario with
  strategic players 0..13. Each call classifies a fresh ``PayoffMatrix``
  of the same entries, so whatever a matrix caches on first use is
  built inside the call, along with the matrix's own row checks;
- ``save_matrix_n10`` / ``_n12``: write the canonical matrix and the
  n=12 one above to a file in a temporary directory;
- ``load_matrix_n10`` / ``_n12``: read those files back, building the
  ``PayoffMatrix`` and its row checks;
- ``export_scatter_n10`` / ``_n12``: the scatter CSV of either matrix,
  from a classification computed beforehand;
- ``improving_coalitions_x0``: the improving coalitions of the
  canonical all-on-route-0 action, a point query on a matrix that has
  answered it before;
- ``is_nash_all_n10``: the Nash test at each of the 1,024 canonical
  actions;
- ``build_club_graph``: the growth graph of the canonical matrix rooted
  at club {7, 8, 9}.

Every layer is sampled ``SAMPLES`` times, the layers taking turns, so
that a spell of slower CPU on a shared host touches all of them alike.
A sample repeats the call until ``MIN_SAMPLE_S`` has passed and keeps
the time per call. Between samples the reference kernel of
``perfbench/speed.py`` is timed, and each sample is divided by the mean
of the kernel times just before and just after it. So a sample is given
in reference seconds, as ``perfbench/run.py`` gives op times: seconds on
a machine where one kernel call takes ``speed.REFERENCE_S``. The file
holds each layer's median and interquartile range in reference seconds
per call, the same in wall seconds, the median kernel time, the git SHA
of the checkout, the Python version and the sample counts. Reference
seconds follow the host's current speed; wall seconds do not, and only
compare between files written on one machine, close in time.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import speed  # noqa: E402  (the benchmark's reference kernel, shared, not copied)

SAMPLES = 31
MIN_SAMPLE_S = 0.05
CLUB = (7, 8, 9)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def layers(workdir: Path) -> dict:
    """Name -> zero-argument call, inputs prepared here and not timed; files go to ``workdir``."""
    sys.path.insert(0, str(ROOT / "src"))
    from routeclubs import calibration, exports, formation, matrixio, stability, traffic
    from routeclubs.game import PayoffMatrix, classify_all, find_clubs, improving_coalitions, is_nash

    cfg = traffic.canonical_scenario()
    n12 = replace(cfg, av_ids=tuple(range(12)))
    n14 = replace(cfg, av_ids=tuple(range(14)))
    club = sum(1 << cfg.av_ids.index(p) for p in CLUB)
    plan = cfg.plan(club)

    grid = calibration.DEFAULT_GRID
    names = sorted(grid)
    for values in product(*(grid[n] for n in names)):
        rejected = replace(cfg, **dict(zip(names, values)))
        if not calibration.evaluate_candidate(rejected).x0_nash:
            break
    else:
        raise RuntimeError("no grid point fails the quick Nash check")

    g = traffic.generate_payoff_matrix(cfg)
    g12 = traffic.generate_payoff_matrix(n12)
    g14 = traffic.generate_payoff_matrix(n14)
    file10, file12 = workdir / "n10.matrix", workdir / "n12.matrix"
    matrixio.save_matrix(g, file10)
    matrixio.save_matrix(g12, file12)
    classes10, classes12 = classify_all(g), classify_all(g12)
    policy = formation.FormationPolicy(leader=formation.default_leader(find_clubs(g, 0)))

    def fresh(m):
        return PayoffMatrix(n_players=m.n_players, av_ids=m.av_ids, entries=m.entries,
                            player_ids=m.player_ids, quantum=m.quantum,
                            supply_mode=m.supply_mode, scenario_hash=m.scenario_hash)

    return {
        "simulate": lambda: traffic.simulate(cfg, club, plan),
        "generate_payoff_matrix_n10": lambda: traffic.generate_payoff_matrix(cfg),
        "generate_payoff_matrix_n12": lambda: traffic.generate_payoff_matrix(n12),
        "evaluate_candidate_quick_rejection": lambda: calibration.evaluate_candidate(rejected),
        "evaluate_candidate_full": lambda: calibration.evaluate_candidate(cfg),
        "run_formation": lambda: formation.run_formation(cfg, g, policy),
        "classify_all_n10": lambda: classify_all(fresh(g)),
        "classify_all_n12": lambda: classify_all(fresh(g12)),
        "classify_all_n14": lambda: classify_all(fresh(g14)),
        "save_matrix_n10": lambda: matrixio.save_matrix(g, workdir / "save.matrix"),
        "save_matrix_n12": lambda: matrixio.save_matrix(g12, workdir / "save.matrix"),
        "load_matrix_n10": lambda: matrixio.load_matrix(file10),
        "load_matrix_n12": lambda: matrixio.load_matrix(file12),
        "export_scatter_n10": lambda: exports.export_scatter(g, classes10, workdir / "s.csv"),
        "export_scatter_n12": lambda: exports.export_scatter(g12, classes12, workdir / "s.csv"),
        "improving_coalitions_x0": lambda: improving_coalitions(g, 0),
        "is_nash_all_n10": lambda: [is_nash(g, x) for x in range(1 << g.n_av)],
        "build_club_graph": lambda: stability.build_club_graph(g, CLUB),
    }


def calls_per_sample(call) -> int:
    number = 1
    while True:
        started = time.perf_counter()
        for _ in range(number):
            call()
        if time.perf_counter() - started >= MIN_SAMPLE_S:
            return number
        number *= 2


def measure(calls: dict) -> dict:
    numbers = {name: calls_per_sample(call) for name, call in calls.items()}
    wall: dict[str, list[float]] = {name: [] for name in calls}
    ref: dict[str, list[float]] = {name: [] for name in calls}
    kernels = [speed.measure()]
    for _ in range(SAMPLES):
        for name, call in calls.items():
            number = numbers[name]
            started = time.perf_counter()
            for _ in range(number):
                call()
            seconds = (time.perf_counter() - started) / number
            kernels.append(speed.measure())
            wall[name].append(seconds)
            ref[name].append(speed.scale(seconds, (kernels[-2] + kernels[-1]) / 2))
    result = {}
    for name in calls:
        q1, median, q3 = statistics.quantiles(ref[name], n=4)
        w1, wall_median, w3 = statistics.quantiles(wall[name], n=4)
        result[name] = {"median_ref_s": median, "iqr_ref_s": q3 - q1,
                        "median_s": wall_median, "iqr_s": w3 - w1,
                        "samples": SAMPLES, "calls_per_sample": numbers[name]}
    return result, statistics.median(kernels)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--out", default=str(ROOT / "bench"), help="directory to write to")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        rows, kernel_s = measure(layers(Path(workdir)))
    report = {
        "label": args.label,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "reference_s": speed.REFERENCE_S,
        "kernel_median_s": kernel_s,
        "layers": rows,
    }
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, row in report["layers"].items():
        print(f"{name}: median {row['median_ref_s'] * 1e3:.4g} ref ms, "
              f"IQR {row['iqr_ref_s'] * 1e3:.3g} ref ms")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
