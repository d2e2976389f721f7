"""Span tracing of routeclubs from outside the package.

The tracer replaces each traced public function with a wrapper at every
module attribute that holds it (``routeclubs.cli.classify_all`` as well
as ``routeclubs.game.classify_all``), so calls made inside the package
are seen too. Spans (name, start, end, parent span, op id) stay in
memory until the run ends. Calls made outside an op, such as the
benchmark's own output checks, pass straight through and record
nothing.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _path_arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _count_generate(c, args, kwargs, result):
    c["traffic.generate_payoff_matrix.actions"] += len(result.entries)


def _count_classify(c, args, kwargs, result):
    c["game.classify_all.actions"] += len(result)
    c["game.classify_all.improving_found"] += sum(
        len(item.improving_coalitions) for item in result.values())


def _count_improving(c, args, kwargs, result):
    c["game.improving_coalitions.found"] += len(result)


def _count_save(c, args, kwargs, result):
    c["matrixio.save_matrix.bytes"] += os.path.getsize(_path_arg(args, kwargs, 1, "path"))


def _count_load(c, args, kwargs, result):
    c["matrixio.load_matrix.bytes"] += os.path.getsize(_path_arg(args, kwargs, 0, "path"))


def _count_graph(c, args, kwargs, result):
    c["stability.build_club_graph.nodes"] += len(result.nodes)
    c["stability.build_club_graph.edges"] += len(result.edges)


def _count_formation(c, args, kwargs, result):
    c["formation.run_formation.days"] += len(result)


def _count_dot(c, args, kwargs, result):
    c["exports.export_dot.bytes"] += os.path.getsize(_path_arg(args, kwargs, 1, "path"))


def _count_scatter(c, args, kwargs, result):
    c["exports.export_scatter.bytes"] += os.path.getsize(_path_arg(args, kwargs, 2, "path"))


def _count_candidate(c, args, kwargs, result):
    # x0 is reported Nash only after every action was priced
    c["calibration.evaluate_candidate.full"] += bool(result.x0_nash)
    c["calibration.evaluate_candidate.accepted"] += bool(result.accepted)


# (module, attribute, span name, counter hook)
TARGETS = (
    ("traffic", "simulate", "traffic.simulate", None),
    ("traffic", "generate_payoff_matrix", "traffic.generate_payoff_matrix", _count_generate),
    ("traffic", "evaluate_lagged_day", "traffic.evaluate_lagged_day", None),
    ("game", "classify_all", "game.classify_all", _count_classify),
    ("game", "improving_coalitions", "game.improving_coalitions", _count_improving),
    ("game", "is_nash", "game.is_nash", None),
    ("game", "find_clubs", "game.find_clubs", None),
    ("matrixio", "save_matrix", "matrixio.save_matrix", _count_save),
    ("matrixio", "load_matrix", "matrixio.load_matrix", _count_load),
    ("stability", "build_club_graph", "stability.build_club_graph", _count_graph),
    ("stability", "joiners", "stability.joiners", None),
    ("stability", "se_candidates", "stability.se_candidates", None),
    ("formation", "run_formation", "formation.run_formation", _count_formation),
    ("formation", "choose_club", "formation.choose_club", None),
    ("exports", "export_dot", "exports.export_dot", _count_dot),
    ("exports", "export_scatter", "exports.export_scatter", _count_scatter),
    ("calibration", "evaluate_candidate", "calibration.evaluate_candidate", _count_candidate),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_generate", "cli.generate", None),
    ("cli", "cmd_analyze", "cli.analyze", None),
    ("cli", "cmd_graph", "cli.graph", None),
    ("cli", "cmd_form", "cli.form", None),
    ("cli", "cmd_scatter", "cli.scatter", None),
)

OP_SPAN = "op"

# Per-layer metrics of a traced run, in report order, with their units.
PER_LAYER = (
    ("traffic.simulate.calls", "count"),
    ("traffic.simulate.self_s", "s"),
    ("traffic.generate_payoff_matrix.calls", "count"),
    ("traffic.generate_payoff_matrix.self_s", "s"),
    ("traffic.generate_payoff_matrix.actions", "count"),
    ("traffic.evaluate_lagged_day.calls", "count"),
    ("game.classify_all.calls", "count"),
    ("game.classify_all.self_s", "s"),
    ("game.classify_all.actions", "count"),
    ("game.classify_all.improving_found", "count"),
    ("game.improving_coalitions.calls", "count"),
    ("game.improving_coalitions.self_s", "s"),
    ("game.improving_coalitions.found", "count"),
    ("game.is_nash.calls", "count"),
    ("game.is_nash.self_s", "s"),
    ("game.find_clubs.calls", "count"),
    ("game.find_clubs.self_s", "s"),
    ("matrixio.save_matrix.calls", "count"),
    ("matrixio.save_matrix.self_s", "s"),
    ("matrixio.save_matrix.bytes", "bytes"),
    ("matrixio.load_matrix.calls", "count"),
    ("matrixio.load_matrix.self_s", "s"),
    ("matrixio.load_matrix.bytes", "bytes"),
    ("stability.build_club_graph.calls", "count"),
    ("stability.build_club_graph.self_s", "s"),
    ("stability.build_club_graph.nodes", "count"),
    ("stability.build_club_graph.edges", "count"),
    ("stability.joiners.calls", "count"),
    ("stability.se_candidates.calls", "count"),
    ("stability.se_candidates.self_s", "s"),
    ("formation.run_formation.calls", "count"),
    ("formation.run_formation.self_s", "s"),
    ("formation.run_formation.days", "count"),
    ("formation.choose_club.self_s", "s"),
    ("exports.export_dot.self_s", "s"),
    ("exports.export_dot.bytes", "bytes"),
    ("exports.export_scatter.self_s", "s"),
    ("exports.export_scatter.bytes", "bytes"),
    ("calibration.evaluate_candidate.calls", "count"),
    ("calibration.evaluate_candidate.self_s", "s"),
    ("calibration.full_eval_ratio", "ratio"),
    ("calibration.accept_ratio", "ratio"),
    ("cli.generate.wall_s", "s"),
    ("cli.analyze.wall_s", "s"),
    ("cli.graph.wall_s", "s"),
    ("cli.form.wall_s", "s"),
    ("cli.scatter.wall_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Counters a later change may cite in a count claim: they must repeat
# exactly between traced runs of one seed on one version of the code.
DETERMINISTIC = (
    "traffic.simulate.calls",
    "game.classify_all.improving_found",
    "game.improving_coalitions.found",
    "matrixio.save_matrix.bytes",
    "matrixio.load_matrix.bytes",
    "exports.export_dot.bytes",
    "exports.export_scatter.bytes",
    "stability.build_club_graph.nodes",
    "stability.build_club_graph.edges",
    "formation.run_formation.days",
    "calibration.full_eval_ratio",
)


class Tracer:
    """Wraps the traced functions and records one span per call inside an op."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._op_start = 0.0
        self._patches: list = []

    def _wrap(self, name, fn, count):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, op)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every ``routeclubs`` module attribute bound to it."""
        homes = {}
        for module_name, attr, _, _ in TARGETS:
            try:
                homes[module_name] = importlib.import_module(f"routeclubs.{module_name}")
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "routeclubs" or n.startswith("routeclubs."))]
        for module_name, attr, name, count in TARGETS:
            original = getattr(homes.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"routeclubs.{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        sid = self._stack.pop()
        self.spans[sid] = (OP_SPAN, self._op_start, end, -1, self._op)
        self._op = None

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans and counters."""
        calls: dict[str, int] = defaultdict(int)
        wall: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            wall[name] += end - start
            self_time[name] += (end - start) - child_time[sid]
        tried = calls["calibration.evaluate_candidate"]
        out: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if metric in self.counters:
                out[metric] = self.counters[metric]
            elif kind == "calls":
                out[metric] = calls[layer]
            elif kind == "self_s":
                out[metric] = self_time[layer]
            elif kind == "wall_s":
                out[metric] = wall[layer]
            else:
                out[metric] = 0
        out["calibration.full_eval_ratio"] = (
            self.counters["calibration.evaluate_candidate.full"] / tried if tried else 0.0)
        out["calibration.accept_ratio"] = (
            self.counters["calibration.evaluate_candidate.accepted"] / tried if tried else 0.0)
        out["trace.op_s"] = wall[OP_SPAN]
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
