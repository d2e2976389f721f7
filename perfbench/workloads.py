"""The benchmark workloads.

Each workload is one caller in a closed loop: the next op starts only
after the previous one returned. A workload makes its inputs from the
seed alone. ``setup`` imports the package and prepares inputs (it is
timed as set-up), ``prepare`` clears an op's old outputs and ``run``
is the timed op. ``check`` compares the op's output with recorded
outputs of the package and with the naive reference in
``tests/oracle.py``; it runs after the op's timer stopped and returns
an error message, or None.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import replace
from pathlib import Path

N12_AV_IDS = tuple(range(12))


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def coalition_mask(av_ids, members) -> int:
    return sum(1 << av_ids.index(p) for p in members)


def improving_digest(av_ids, coalitions) -> str:
    """Order-free digest of a set of coalitions."""
    masks = sorted(coalition_mask(av_ids, c) for c in coalitions)
    return hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest()[:16]


def formation_digest(days) -> str:
    rows = [[d.day, d.action, d.plan.green_west, d.plan.green_south, list(d.payoffs),
             d.event.value, d.player, d.from_route, d.to_route] for d in days]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def grid_point(grid, index: int) -> dict:
    """Parameters of one grid point, in ``itertools.product`` order of the sorted names."""
    point = {}
    for name in reversed(grid["names"]):
        values = grid["values"][name]
        index, r = divmod(index, len(values))
        point[name] = values[r]
    return point


def run_cli(cli, argv) -> int:
    """One in-process CLI call; its report lines go to a buffer."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def warm_up_cli(cli, traffic, workdir: Path) -> None:
    """Run every subcommand once on small inputs so first-call costs land in set-up.

    No cut of the canonical scenario small enough to be cheap has a club,
    so ``form`` warms up on the canonical scenario with a two-day cap.
    """
    d = workdir / "warm"
    d.mkdir(exist_ok=True)
    small = replace(traffic.canonical_scenario(), av_ids=(4, 5, 6, 7, 8, 9))
    traffic.save_scenario(small, d / "small.json")
    steps = (
        ["generate", "--config", d / "small.json", "--out", d / "small.mtx"],
        ["analyze", "--matrix", d / "small.mtx", "--out", d / "small_report.json"],
        ["graph", "--matrix", d / "small.mtx", "--root", "9", "--out", d / "small.dot"],
        ["scatter", "--matrix", d / "small.mtx", "--out", d / "small.csv"],
        ["form", "--max-days", "2", "--out", d / "small.jsonl"],
    )
    for argv in steps:
        code = run_cli(cli, argv)
        if code != 0:
            raise RuntimeError(f"warm-up step {argv[0]} exited {code}")


class Workload:
    name = ""
    deck = 1  # ops in the fixed deck a traced run replays

    def __init__(self, seed: int, workdir: Path, expected: dict):
        self.seed = seed
        self.workdir = workdir
        self.expected = expected
        self.oracle = None  # tests/oracle.py, loaded after set-up
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self):
        """Endless seeded stream of op inputs."""
        raise NotImplementedError

    def prepare(self, op) -> None:
        pass

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        raise NotImplementedError


class CanonicalPipeline(Workload):
    """generate -> analyze -> graph -> form -> scatter on the bundled n=10 scenario."""

    name = "canonical_pipeline"
    deck = 4
    FILES = ("matrix.mtx", "report.json", "clubs.dot", "days.jsonl", "actions.csv")

    def setup(self) -> None:
        from routeclubs import cli, traffic
        self.cli = cli
        warm_up_cli(cli, traffic, self.workdir)

    def ops(self):
        m, r, dot, days, csv = (self.workdir / f for f in self.FILES)
        argvs = (
            ["generate", "--out", m],
            ["analyze", "--matrix", m, "--out", r],
            ["graph", "--matrix", m, "--out", dot],
            ["form", "--matrix", m, "--out", days],
            ["scatter", "--matrix", m, "--out", csv],
        )
        while True:
            yield argvs

    def prepare(self, op) -> None:
        for f in self.FILES:
            (self.workdir / f).unlink(missing_ok=True)

    def run(self, op):
        return [run_cli(self.cli, argv) for argv in op]

    def check(self, op, codes) -> str | None:
        if codes != [0] * len(op):
            return f"exit codes {codes}"
        digests = self.expected["canonical_pipeline"]
        for f in self.FILES:
            if sha256_file(self.workdir / f) != digests[f]:
                return f"{f} differs from the recorded output"
        report = json.loads((self.workdir / "report.json").read_text())
        if report["x0_is_nash"] is not True:
            return "x0 is not Nash"
        if report.get("clubs_at_x0") != [[7, 8, 9]]:
            return f"clubs at x0 are {report.get('clubs_at_x0')}, expected [[7, 8, 9]]"
        last = json.loads((self.workdir / "days.jsonl").read_text().splitlines()[-1])
        if last["event"] != "converged":
            return f"formation ended with {last['event']}"
        return None


class ScaleN12(Workload):
    """generate -> analyze on the canonical scenario widened to 12 strategic players.

    The scenario keeps the canonical signal offset whatever the seed: across
    the calibration grid's offsets the n=12 matrix holds 394k to 604k
    improving coalitions, which moves classification time and peak memory
    by more than the bounds this workload shares with the others. The seed
    picks the actions the check compares with the oracle.
    """

    name = "scale_n12"
    deck = 1
    SAMPLED_ACTIONS = 2

    def setup(self) -> None:
        from routeclubs import cli, traffic
        self.cli = cli
        self.cfg = replace(traffic.canonical_scenario(), av_ids=N12_AV_IDS)
        traffic.save_scenario(self.cfg, self.workdir / "n12.json")
        warm_up_cli(cli, traffic, self.workdir)

    def ops(self):
        d = self.workdir
        argvs = (
            ["generate", "--config", d / "n12.json", "--out", d / "n12.mtx"],
            ["analyze", "--matrix", d / "n12.mtx", "--out", d / "n12_report.json"],
        )
        while True:
            yield argvs

    def prepare(self, op) -> None:
        for f in ("n12.mtx", "n12_report.json"):
            (self.workdir / f).unlink(missing_ok=True)

    def run(self, op):
        # keep the classification analyze computed, for the sampled check
        captured = []
        inner = self.cli.classify_all

        def capture(*args, **kwargs):
            result = inner(*args, **kwargs)
            captured.append(result)
            return result

        self.cli.classify_all = capture
        try:
            codes = [run_cli(self.cli, argv) for argv in op]
        finally:
            self.cli.classify_all = inner
        return codes, captured

    def check(self, op, out) -> str | None:
        from routeclubs import matrixio, traffic
        codes, captured = out
        if codes != [0, 0]:
            return f"exit codes {codes}"
        if len(captured) != 1:
            return f"analyze called classify_all {len(captured)} times"
        classification = captured[0]
        g = matrixio.load_matrix(self.workdir / "n12.mtx")
        report = json.loads((self.workdir / "n12_report.json").read_text())
        n_actions = 1 << len(N12_AV_IDS)
        if report["actions"] != n_actions or len(classification) != n_actions:
            return "analyze did not classify all 4096 actions"
        counts = {}
        for item in classification.values():
            counts[item.tag.value] = counts.get(item.tag.value, 0) + 1
        if any(report["counts"].get(k, 0) != v for k, v in counts.items()) \
                or sum(report["counts"].values()) != n_actions:
            return f"report counts {report['counts']} disagree with the classification"
        oracle = self.oracle
        if report["x0_is_nash"] != oracle.nash(g, 0):
            return "x0_is_nash disagrees with the oracle"
        if report["x0_is_nash"] and sorted(report["clubs_at_x0"]) != sorted(
                sorted(c) for c in oracle.clubs(g, 0)):
            return "clubs at x0 disagree with the oracle"
        for x in [0] + [self.rng.randrange(n_actions) for _ in range(self.SAMPLED_ACTIONS)]:
            plan = traffic.signal_plan(x.bit_count(), self.cfg.supply_mode)
            priced = tuple(-t for t in traffic.simulate(self.cfg, x, plan).travel_times)
            if g.entries[x] != priced:
                return f"matrix row {g.action_string(x)} differs from a direct simulation"
            item = classification[x]
            expected = oracle.improving(g, x)
            if set(item.improving_coalitions) != expected:
                return f"improving coalitions at {g.action_string(x)} disagree with the oracle"
            solo = {p for c in expected if len(c) == 1 for p in c}
            tag = "strong_nash" if not expected else "not_nash" if solo else "nash"
            club = any(len(c) > 1 and not c & solo for c in expected)
            if item.tag.value != tag or item.club_found != club:
                return f"class of {g.action_string(x)} disagrees with the oracle"
        return None


class CalibrationSweep(Workload):
    """One calibration candidate per op, drawn from the calibration grid."""

    name = "calibration_sweep"
    deck = 500
    SWEEP = 100

    def setup(self) -> None:
        from routeclubs import calibration, traffic
        self.calibration = calibration
        self.canonical = traffic.canonical_scenario()
        self.base = traffic.ScenarioConfig()
        grid = self.expected["grid"]
        verdicts = grid["verdicts"]
        self.by_verdict = {v: [i for i, c in enumerate(verdicts) if c == v] for v in "qra"}
        # warm-up: the known answer and one quick rejection
        calibration.evaluate_candidate(self.canonical)
        calibration.evaluate_candidate(self._config(self.by_verdict["q"][0]))

    def _config(self, index: int):
        return replace(self.base, **grid_point(self.expected["grid"], index))

    def ops(self):
        # Every sweep holds the grid's own share of each verdict, so runs of
        # different seeds do the same mix of quick rejections (11 simulations)
        # and full evaluations (1024 simulations plus the game layer).
        n_grid = len(self.expected["grid"]["verdicts"])
        share = {v: round(self.SWEEP * len(ix) / n_grid) for v, ix in self.by_verdict.items()}
        share["q"] = self.SWEEP - share["a"] - share["r"]
        while True:
            picks = [(None, self.canonical)]
            for verdict in "qra":
                k = share[verdict] - (verdict == "a")
                picks += [(i, self._config(i)) for i in self.rng.sample(self.by_verdict[verdict], k)]
            self.rng.shuffle(picks)
            yield from picks

    def run(self, op):
        return self.calibration.evaluate_candidate(op[1])

    def check(self, op, report) -> str | None:
        index, cfg = op
        if report.cfg != cfg:
            return "report is for another scenario"
        if index is None:
            if not report.accepted or report.club_sizes != (3,):
                return (f"canonical scenario: accepted={report.accepted}, "
                        f"club sizes {report.club_sizes}, expected accepted with (3,)")
            return None
        verdict = "a" if report.accepted else "r" if report.x0_nash else "q"
        recorded = self.expected["grid"]["verdicts"][index]
        if verdict != recorded:
            return f"grid point {index}: verdict {verdict}, recorded {recorded}"
        return None


class PointQueries(Workload):
    """Library queries on the canonical matrix, which is loaded once in set-up.

    A round asks the four query kinds once each, in the order of the
    README's library example: ``improving_coalitions`` at an action, a club
    graph with its terminal coalitions, ``se_candidates`` on that graph, and
    a formation replay. The canonical matrix has no strong action, so each
    round also asks ``se_candidates`` on the completed Table 1 fixture,
    whose club graphs do reach strong actions.

    One op is six rounds, one for each formation leader and policy. A
    replay takes 3.7 to 7.2 ms depending on the pair, so ops of one round
    each would spread over several modes and their median would jump
    between them from run to run.
    """

    name = "point_queries"
    deck = 40
    LIVE_ORACLE_CHECKS = 2

    def setup(self) -> None:
        from routeclubs import fixtures, formation, game, matrixio, stability, traffic
        self.formation, self.game, self.stability = formation, game, stability
        self.cfg = traffic.canonical_scenario()
        path = self.workdir / "canonical.mtx"
        matrixio.save_matrix(traffic.generate_payoff_matrix(self.cfg), path)
        self.g = matrixio.load_matrix(path)
        self.table1 = fixtures.table1_completed()
        self.policies = {"first": formation.TARGET_FIRST, "stable": formation.TARGET_STABLE}
        self.leaders = sorted({p for c in self.expected["clubs_at_x0"] for p in c})
        self.live_checks = 0
        self.run([(0, frozenset({7, 8, 9}), fixtures.TABLE1_ROOT_CLUB, self.leaders[0], "first")])

    def _coalition(self, g):
        n = len(g.av_ids)
        mask = self.rng.randrange(1, 1 << n)
        return frozenset(g.av_ids[k] for k in range(n) if mask >> k & 1)

    def ops(self):
        n_actions = 1 << len(self.g.av_ids)
        while True:
            yield [(self.rng.randrange(n_actions), self._coalition(self.g),
                    self._coalition(self.table1), leader, policy)
                   for leader in self.leaders for policy in self.policies]

    def run(self, op):
        return [self._round(*r) for r in op]

    def check(self, op, out) -> str | None:
        for r, result in zip(op, out):
            error = self._check_round(*r, *result)
            if error is not None:
                return error
        return None

    def _round(self, x, root, table1_root, leader, policy):
        game, stability = self.game, self.stability
        improving = game.improving_coalitions(self.g, x)
        graph = stability.build_club_graph(self.g, root)
        leaves = stability.terminal_coalitions(graph)
        se = stability.se_candidates(self.g, graph)
        table1_graph = stability.build_club_graph(self.table1, table1_root)
        table1_se = stability.se_candidates(self.table1, table1_graph)
        days = self.formation.run_formation(self.cfg, self.g, self.formation.FormationPolicy(
            leader=leader, target_selection=self.policies[policy]))
        return improving, graph, leaves, se, table1_graph, table1_se, days

    def _check_round(self, x, root, table1_root, leader, policy,
                     improving, graph, leaves, se, table1_graph, table1_se, days) -> str | None:
        g, t1, oracle = self.g, self.table1, self.oracle
        av_ids = list(g.av_ids)
        if improving_digest(av_ids, improving) != self.expected["improving_digests"][x]:
            return f"improving coalitions at {x} differ from the recorded oracle output"
        if self.live_checks < self.LIVE_ORACLE_CHECKS:
            self.live_checks += 1
            if set(improving) != oracle.improving(g, x):
                return f"improving coalitions at {x} disagree with the oracle"
        nodes, edges = oracle.closure(g, root)
        if set(graph.nodes) != nodes or set(graph.edges) != edges:
            return f"club graph from {sorted(root)} disagrees with the oracle"
        oracle_leaves = {c for c in nodes if not oracle.eager_joiners(g, c)}  # oracle.leaf_set
        if set(leaves) != oracle_leaves:
            return f"terminal coalitions from {sorted(root)} disagree with the oracle"
        strong = set(self.expected["strong_actions"])
        if set(se) != {c for c in oracle_leaves if coalition_mask(av_ids, c) in strong}:
            return f"se_candidates from {sorted(root)} disagree with the oracle"
        nodes, edges = oracle.closure(t1, table1_root)
        if set(table1_graph.nodes) != nodes or set(table1_graph.edges) != edges:
            return f"Table 1 club graph from {sorted(table1_root)} disagrees with the oracle"
        expected = {c for c in oracle.leaf_set(t1, table1_root)
                    if oracle.strong(t1, t1.indicator(c))}
        if set(table1_se) != expected:
            return f"Table 1 se_candidates from {sorted(table1_root)} disagree with the oracle"
        if formation_digest(days) != self.expected["formation_digests"][f"{leader}:{policy}"]:
            return f"formation {leader}:{policy} differs from the recorded replay"
        if days[-1].event.value != "converged" or not oracle.nash(g, days[-1].action):
            return "formation did not converge onto a Nash action"
        return None


WORKLOADS = {w.name: w for w in (CanonicalPipeline, ScaleN12, CalibrationSweep, PointQueries)}
