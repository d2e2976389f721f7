"""Benchmark of routeclubs: four closed-loop workloads, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout holding ``src/routeclubs`` and
``tests/oracle.py``; the package is imported from ``src``.

With ``--trace 0`` the workload is set up once in this process and
ten times in fresh interpreters, half before the ops and half after
(``setup_s`` is the median). Ops run back to back until ``--seconds`` of
op time have passed. Every op's output is checked after its timer
stopped. Times are reported in reference seconds: each op and set-up
time is divided by the time of a fixed kernel measured during and around
it (``speed.py``), so that the host's changing CPU speed drops out. The
wall-clock figures are printed too.

With ``--trace 1`` the workload replays a fixed deck of its first ops
twice: untraced, then with every layer's public functions wrapped. The
per-layer metrics come from the traced pass, so counters repeat exactly
between runs of one seed; the spans are written to ``perfbench/out``.

The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Fresh-interpreter set-ups per run, besides the one in this process; half
# run before the ops and half after, so that the samples span the run and
# a spell of slower CPU shifts fewer of them.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 120
SETUP_KERNEL_RUNS = 3  # reference kernel runs just before and just after each set-up
WALL_GRACE_S = 90  # a run stops starting ops this long past --seconds of wall time


def load_oracle():
    """Load tests/oracle.py from source, leaving nothing behind in tests/."""
    module = types.ModuleType("oracle")
    module.__file__ = str(ORACLE)
    exec(compile(ORACLE.read_text(), str(ORACLE), "exec"), module.__dict__)
    return module


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref} unresolved)"


def metadata(args) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def code_digest() -> str:
    """Digest of the package and benchmark sources, to key the repeat check."""
    h = hashlib.sha256()
    for base in (SRC / "routeclubs", BENCH):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".py", ".json", ".matrix") and OUT not in path.parents:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def make_workload(args, workdir: Path):
    expected = json.loads(EXPECTED.read_text())
    return workloads.WORKLOADS[args.workload](args.seed, workdir, expected)


def timed_setup(workload) -> tuple[float, float]:
    """Set-up time in wall and in reference seconds; the kernel runs just before and after."""
    kernel = [speed.measure() for _ in range(SETUP_KERNEL_RUNS)]
    started = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - started
    kernel += [speed.measure() for _ in range(SETUP_KERNEL_RUNS)]
    return seconds, speed.scale(seconds, statistics.median(kernel))


def probe_setups(args, count: int) -> list[tuple[float, float]]:
    """Set the workload up in fresh interpreters, so import costs count every time."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return times


class Loop:
    """Runs ops one after another, timing each and checking it outside the timer.

    Given a ``speed.Sampler``, the loop takes the sampler's own time out
    of each op time, and ``scaled_times`` gives op times in reference
    seconds.
    """

    def __init__(self, workload, tracer=None, sampler=None):
        self.workload = workload
        self.tracer = tracer
        self.sampler = sampler
        self.times: list[float] = []
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op, with a sampler
        self.busy = 0.0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, op) -> None:
        w, tracer, sampler = self.workload, self.tracer, self.sampler
        w.prepare(op)
        out, error = None, None
        if tracer is not None:
            tracer.begin_op(len(self.times))
        first = len(sampler.samples) if sampler is not None else 0
        started = time.perf_counter()
        try:
            out = w.run(op)
        except Exception:
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        ended = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        elapsed = ended - started
        if sampler is not None:
            elapsed -= sampler.stolen(first, started, ended)
            self.spans.append((started, ended))
        self.times.append(elapsed)
        self.busy += elapsed
        if error is None:
            try:
                error = w.check(op, out)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        del out
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def scaled_times(self) -> list[float]:
        """Op times in reference seconds, each at the kernel time measured during and around it."""
        kernel = self.sampler.kernel_times(self.spans)
        return [speed.scale(t, k) for t, k in zip(self.times, kernel)]

    def ops_per_s(self, times: list[float] | None = None) -> float:
        """Ops that passed their check per second of op time (wall, or the given times)."""
        return (len(self.times) - self.failed) / (self.busy if times is None else sum(times))


def tail_percentile(times: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie above it."""
    ranked = sorted(times)
    rank = math.ceil(q * len(ranked))
    return ranked[rank - 1], len(ranked) - rank


def untraced(args, workload) -> tuple[dict, dict, Loop]:
    setup_times = probe_setups(args, SETUP_PROBES // 2) + [timed_setup(workload)]
    workload.oracle = load_oracle()
    stream = workload.ops()
    with speed.Sampler() as sampler:
        loop = Loop(workload, sampler=sampler)
        wall_start = time.perf_counter()
        while loop.busy < args.seconds and time.perf_counter() - wall_start < args.seconds + WALL_GRACE_S:
            loop.one(next(stream))
    setup_times += probe_setups(args, SETUP_PROBES - SETUP_PROBES // 2)
    op_times = loop.scaled_times()
    setup_wall, setup_ref = zip(*setup_times)
    p90, above = tail_percentile(op_times, 0.9)
    metrics = {
        "ops_per_s": {"value": loop.ops_per_s(op_times), "unit": "1/s"},
        "op_s_p50": {"value": statistics.median(op_times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    extra = {
        "op_s_p90": ({"value": p90, "unit": "s", "samples_above": above}
                     if above >= 10 else None),
        "ops": len(loop.times),
        "failed_ops_ratio": {"value": loop.failed / len(loop.times),
                             "failed": loop.failed, "attempted": len(loop.times)},
        "wall": {"ops_per_s": loop.ops_per_s(), "op_s_p50": statistics.median(loop.times),
                 "setup_s": statistics.median(setup_wall)},
        "kernel_s": {"median": statistics.median(k for _, _, k in sampler.samples),
                     "runs": len(sampler.samples),
                     "min": min(k for _, _, k in sampler.samples),
                     "max": max(k for _, _, k in sampler.samples)},
        "setup_s_samples": setup_ref,
        "setup_wall_s_samples": setup_wall,
        "op_s_samples": op_times,
        "op_wall_s_samples": loop.times,
        "kernel_samples": [k for _, _, k in sampler.samples],
    }
    return metrics, extra, loop


def repeat_check(args, counters: dict) -> list[str] | None:
    """Compare deterministic counters with an earlier traced run of this seed and code.

    Returns None when no earlier run exists (the counters are recorded),
    else the counters that differ.
    """
    path = OUT / "repeat_check.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{args.workload}|seed={args.seed}|code={code_digest()}"
    mine = {k: counters[k] for k in spans.DETERMINISTIC}
    earlier = record.get(key)
    if earlier is None:
        record[key] = mine
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    return [f"{k}: earlier run {earlier[k]}, this run {mine[k]}"
            for k in spans.DETERMINISTIC if earlier.get(k) != mine[k]]


def traced(args, workload) -> tuple[dict, dict, Loop]:
    setup_s = timed_setup(workload)[0]
    workload.oracle = load_oracle()
    stream = workload.ops()
    deck = [next(stream) for _ in range(workload.deck)]
    plain = Loop(workload)
    for op in deck:
        plain.one(op)
    tracer = spans.Tracer()
    tracer.install()
    loop = Loop(workload, tracer)
    try:
        for op in deck:
            loop.one(op)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead_ratio"] = loop.ops_per_s() / plain.ops_per_s()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}
    mismatches = repeat_check(args, values)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file)
    op_s = values["trace.op_s"]
    shares = sorted(((values[n] / op_s, n) for n, _ in spans.PER_LAYER
                     if n.endswith(".self_s")), reverse=True)
    extra = {
        "setup_s": setup_s,
        "deck_ops": len(deck),
        "untraced_failed": plain.failed,
        "self_time_shares": {n: s for s, n in shares},
        "repeat_mismatches": mismatches,
        "missing_targets": tracer.missing,
        "span_file": str(span_file.relative_to(ROOT)),
    }
    plain.times += loop.times
    plain.busy += loop.busy
    plain.failed += loop.failed
    plain.errors += loop.errors
    return metrics, extra, plain


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = make_workload(args, workdir)
        metrics, extra, loop = (traced if args.trace else untraced)(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = metadata(args)
    correct = loop.failed == 0 and not extra.get("repeat_mismatches")
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    if not args.trace:
        p90 = extra["op_s_p90"]
        print(f"op_s_p90: {p90['value']:.6g} s ({p90['samples_above']} of {extra['ops']} ops above)"
              if p90 else f"op_s_p90: not reported ({extra['ops']} ops leave fewer than 10 above it)")
        f = extra["failed_ops_ratio"]
        print(f"failed_ops_ratio: {f['value']:.6g} ({f['failed']} failed of {f['attempted']})")
        wall, kernel = extra["wall"], extra["kernel_s"]
        print(f"times above are in reference seconds (speed.py); in wall seconds: "
              f"ops_per_s {wall['ops_per_s']:.6g}, op_s_p50 {wall['op_s_p50']:.6g}, "
              f"setup_s {wall['setup_s']:.6g}")
        print(f"reference kernel: median {kernel['median'] * 1e3:.3f} ms over {kernel['runs']} runs "
              f"({kernel['min'] * 1e3:.3f} to {kernel['max'] * 1e3:.3f} ms); "
              f"reference seconds take it as {speed.REFERENCE_S * 1e3:g} ms")
    else:
        print("largest self-time shares of traced op time:")
        for name, share in list(extra["self_time_shares"].items())[:6]:
            print(f"  {name}: {share:.3f}")
        if extra["missing_targets"]:
            print(f"not traced, missing from the package: {extra['missing_targets']}")
        if extra["repeat_mismatches"] is None:
            print("repeat check: first traced run of this seed and code, counters recorded")
        elif not extra["repeat_mismatches"]:
            print("repeat check: deterministic counters repeat an earlier run exactly")
        for line in extra["repeat_mismatches"] or ():
            print(f"repeat check: counter did not repeat exactly: {line}")
    for error in loop.errors:
        print(f"failed op: {error}")
    result = {"correct": correct, "attempted": len(loop.times), "failed": loop.failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, metadata=meta, extra=extra), indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("== summary")
    for name, result in rows:
        cells = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()
                          if args.trace == 0 or not k.endswith(".calls"))
        print(f"{name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}; {cells}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for needed in (SRC / "routeclubs" / "__init__.py", ORACLE, EXPECTED):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a routeclubs checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        workdir = OUT / f"work-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            seconds = timed_setup(make_workload(args, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
