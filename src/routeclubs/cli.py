"""Command-line surface: one subcommand per reproducible artifact.

generate  scenario config -> payoff matrix file
analyze   matrix -> equilibrium classification and club report
graph     matrix -> club dynamics graph in DOT
form      scenario + matrix -> day-by-day formation log (JSON lines)
scatter   matrix -> per-action CSV of route times and classes
calibrate grid scan -> calibrated scenario and search report in a directory

Exit codes: 0 success, 2 malformed input file, 3 violated precondition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import FormatError, PreconditionError
from .exports import export_dot, export_scatter
from .formation import (TARGET_FIRST, TARGET_STABLE, DayEvent, FormationPolicy,
                        _check_scenario, default_leader, run_formation)
from .game import EquilibriumTag, classify_all, find_clubs, sort_coalitions
from .matrixio import load_matrix, save_matrix
from .stability import build_club_graph, se_candidates, terminal_coalitions
from .traffic import canonical_scenario, generate_payoff_matrix, load_scenario


def _scenario(args):
    if args.config:
        return load_scenario(args.config)
    return canonical_scenario()


def cmd_generate(args) -> int:
    cfg = _scenario(args)
    if args.mode:
        cfg = replace(cfg, supply_mode=args.mode)
    g = generate_payoff_matrix(cfg)
    save_matrix(g, args.out)
    print(f"wrote {len(g.entries)} joint actions for {g.n_av} strategic players "
          f"({cfg.supply_mode} supply) to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    g = load_matrix(args.matrix)
    classification = classify_all(g)
    counts = {tag.value: 0 for tag in EquilibriumTag}
    for item in classification.values():
        counts[item.tag.value] += 1
    strong = sorted(a for a, c in classification.items()
                    if c.tag is EquilibriumTag.STRONG_NASH)
    x0 = classification[0]
    report = {
        "n_players": g.n_players,
        "n_av": g.n_av,
        "actions": len(g.entries),
        "counts": counts,
        "strong_actions": [g.action_string(a) for a in strong],
        "actions_with_clubs": sum(1 for c in classification.values() if c.club_found),
        "x0_is_nash": x0.tag is not EquilibriumTag.NOT_NASH,
    }
    if report["x0_is_nash"]:
        # at a Nash action every improving coalition is a club
        report["clubs_at_x0"] = [sorted(c) for c in sort_coalitions(x0.improving_coalitions)]
    for key, value in report.items():
        print(f"{key}: {value}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote report to {args.out}")
    return 0


def _parse_root(g, text: str) -> frozenset[int]:
    try:
        members = frozenset(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise PreconditionError(f"malformed coalition {text!r}; expected e.g. '1,5,6'") from None
    if not members or not members <= set(g.av_ids):
        raise PreconditionError(f"root {text!r} must name one or more of the strategic "
                                f"players {list(g.av_ids)}")
    return members


def cmd_graph(args) -> int:
    g = load_matrix(args.matrix)
    if args.root:
        root = _parse_root(g, args.root)
    else:
        clubs = sort_coalitions(find_clubs(g, 0))
        if not clubs:
            raise PreconditionError("no club exists at the all-on-route-0 action; pass --root")
        root = clubs[0]
    graph = build_club_graph(g, root)
    se = se_candidates(g, graph) if g.complete else frozenset()
    export_dot(graph, args.out, se_nodes=se)
    leaves = terminal_coalitions(graph)
    print(f"root {sorted(root)}: {len(graph.nodes)} coalitions, {len(graph.edges)} joins, "
          f"{len(leaves)} terminal, {len(se)} strong; wrote {args.out}")
    return 0


def cmd_form(args) -> int:
    cfg = _scenario(args)
    if args.matrix:
        g = load_matrix(args.matrix)
    else:
        g = generate_payoff_matrix(cfg)
    _check_scenario(cfg, g)
    leader = args.leader if args.leader is not None else default_leader(find_clubs(g, 0))
    policy = FormationPolicy(
        leader=leader,
        target_selection=TARGET_STABLE if args.policy == "stable" else TARGET_FIRST,
        max_days=args.max_days,
    )
    days = run_formation(cfg, g, policy)
    lines = []
    for d in days:
        record = {
            "day": d.day,
            "action": g.action_string(d.action),
            "green_west": d.plan.green_west,
            "green_south": d.plan.green_south,
            "event": d.event.value,
            "payoffs": list(d.payoffs),
        }
        if d.player is not None:
            record.update(player=d.player, from_route=d.from_route, to_route=d.to_route)
        lines.append(json.dumps(record, sort_keys=True))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} day records to {args.out}")
    else:
        print("\n".join(lines))
    converged = days[-1].event is DayEvent.CONVERGED
    print(f"leader {leader}, {len(days)} days, converged: {converged}, "
          f"final action {g.action_string(days[-1].action)}")
    return 0


def cmd_scatter(args) -> int:
    g = load_matrix(args.matrix)
    classification = classify_all(g)
    export_scatter(g, classification, args.out)
    print(f"wrote {len(g.entries)} scatter rows to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    # imported here: at module level the calibration module would add a
    # few milliseconds (python -X importtime) to every subcommand's start-up
    from . import calibration
    # checked before the scan: the nearest existing ancestor of --out must
    # be a directory this process may create entries in
    out = Path(args.out).absolute()
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {args.out} is a file or lies under one")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(f"--out {args.out}: cannot write into {existing}")
    best, summary = calibration.calibrate()
    print(json.dumps(summary, indent=2, sort_keys=True))
    if best is None:
        raise PreconditionError("no grid point passes every calibration stage")
    out.mkdir(parents=True, exist_ok=True)
    calibration.freeze(best, args.out, summary)
    print(f"wrote canonical_scenario.json and calibration_report.json to {args.out}; "
          f"club sizes {list(best.club_sizes)}, {len(best.strong_actions)} strong actions")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routeclubs",
        description="Two-route routing games: payoff matrices, equilibria, clubs, formation replays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a scenario into a matrix file")
    p.add_argument("--config", help="scenario JSON (default: bundled calibrated scenario)")
    p.add_argument("--mode", choices=["static", "adaptive"], help="override supply mode")
    p.add_argument("--out", required=True, help="matrix file to write")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="classify all joint actions of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="build and export the club dynamics graph")
    p.add_argument("--matrix", required=True)
    p.add_argument("--root", help="club members, e.g. '7,8,9' (default: first club at x0)")
    p.add_argument("--out", required=True, help="DOT file to write")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("form", help="replay the day-by-day formation process")
    p.add_argument("--config", help="scenario JSON (default: bundled calibrated scenario)")
    p.add_argument("--matrix", help="matrix file (default: generate from the scenario)")
    p.add_argument("--leader", type=int, help="leader player id (default: least member of first club)")
    p.add_argument("--policy", choices=["first", "stable"], default="first")
    p.add_argument("--max-days", type=int, default=60)
    p.add_argument("--out", help="JSON-lines file to write (default: stdout)")
    p.set_defaults(func=cmd_form)

    p = sub.add_parser("scatter", help="export the per-action scatter CSV")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("calibrate", help="scan the calibration grid and freeze the best scenario")
    p.add_argument("--out", required=True, help="directory for canonical_scenario.json "
                   "and calibration_report.json")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PreconditionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
