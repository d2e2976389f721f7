"""Per-layer timings of routeclubs, written to ``BENCH_<label>.json``.

    python3 bench/layers.py --label NAME [--out DIR]

Run it from a checkout holding ``src/routeclubs``; the package is
imported from that ``src``, so the same script times any commit it is
copied into. It uses the standard library only.

Each layer is one call on fixed inputs:

- ``simulate``: one day of the canonical scenario, club {7, 8, 9} on
  route 1 under its own plan;
- ``generate_payoff_matrix_n10`` / ``_n12``: the canonical scenario, and
  the same scenario with strategic players 0..11;
- ``evaluate_candidate_quick_rejection``: the first point of the
  calibration grid whose all-on-route-0 action fails the quick Nash
  check, so the matrix is never built;
- ``run_formation``: the canonical replay from the first club's least
  member, on a matrix built once beforehand;
- ``classify_all_n10`` / ``_n12``: every joint action of the two
  matrices above, built once beforehand;
- ``is_nash_all_n10``: the Nash test at each of the 1,024 canonical
  actions;
- ``build_club_graph``: the growth graph of the canonical matrix rooted
  at club {7, 8, 9}.

Every layer is sampled ``SAMPLES`` times, the layers taking turns, so
that a spell of slower CPU on a shared host touches all of them alike.
A sample repeats the call until ``MIN_SAMPLE_S`` has passed and keeps
the time per call. The file holds each layer's median and interquartile
range in wall seconds per call, with the git SHA of the checkout, the
Python version and the sample counts. Wall seconds depend on the host
and its current speed: compare files written on one machine, close in
time.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def layers() -> dict:
    """Name -> zero-argument call, inputs prepared here and not timed."""
    sys.path.insert(0, str(ROOT / "src"))
    from routeclubs import calibration, formation, stability, traffic
    from routeclubs.game import classify_all, find_clubs, is_nash, sort_coalitions

    cfg = traffic.canonical_scenario()
    n12 = replace(cfg, av_ids=tuple(range(12)))
    club = sum(1 << cfg.av_ids.index(p) for p in CLUB)
    plan = traffic.signal_plan(traffic.route1_demand(club), cfg.supply_mode)

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
    policy = formation.FormationPolicy(leader=min(sort_coalitions(find_clubs(g, 0))[0]))
    return {
        "simulate": lambda: traffic.simulate(cfg, club, plan),
        "generate_payoff_matrix_n10": lambda: traffic.generate_payoff_matrix(cfg),
        "generate_payoff_matrix_n12": lambda: traffic.generate_payoff_matrix(n12),
        "evaluate_candidate_quick_rejection": lambda: calibration.evaluate_candidate(rejected),
        "run_formation": lambda: formation.run_formation(cfg, g, policy),
        "classify_all_n10": lambda: classify_all(g),
        "classify_all_n12": lambda: classify_all(g12),
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
    times: dict[str, list[float]] = {name: [] for name in calls}
    for _ in range(SAMPLES):
        for name, call in calls.items():
            number = numbers[name]
            started = time.perf_counter()
            for _ in range(number):
                call()
            times[name].append((time.perf_counter() - started) / number)
    result = {}
    for name, values in times.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        result[name] = {"median_s": median, "iqr_s": q3 - q1,
                        "samples": SAMPLES, "calls_per_sample": numbers[name]}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--out", default=str(ROOT / "bench"), help="directory to write to")
    args = parser.parse_args(argv)
    report = {
        "label": args.label,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "layers": measure(layers()),
    }
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, row in report["layers"].items():
        print(f"{name}: median {row['median_s'] * 1e3:.4g} ms, IQR {row['iqr_s'] * 1e3:.3g} ms")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
