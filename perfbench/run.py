"""Closed-loop benchmark of the kanext CLI, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one command at a time to ``kanext.cli.main``: the config
goes in as JSON text on stdin, and stdout, stderr and the exit code are
captured.  Inputs come from ``--seed`` and are generated in batches before
they are timed; the run measures until the commands' own time adds up to
``--seconds``.  Every command's result is then checked against an
independent reference (``reference.py``).

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` and
``peak_rss_mb`` come from fresh ``python3 -m kanext.cli`` processes running
the workload's first command, which is also the in-process warm-up.  The
host's slowdown is measured all through a run by a fixed probe
(``hostprobe.py``): each command time behind ``ops_per_s``,
``pairs_per_s`` and the latency percentiles is divided by the slowdown
around that command, and ``setup_s`` by the slowdown over the fresh
processes, so the timings read as on a calm reference host.  The unscaled
wall timings are printed beside them.
``--trace 1`` wraps every layer from outside (``tracing.py``) in every
other batch of commands, reports per-layer metrics per traced command, and
compares the traced batches with the untraced ones between them for the
tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print the same numbers with
their units, the run's environment and the workload's input properties.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostprobe import REFERENCE_S, HostProbe
from reference import Checker, LpBatch, Outcome
from workloads import WORKLOADS, defect_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 7
BATCH = 32
CHILD_TIMEOUT_S = 90
# Command time between two host probes: the probes take about 5% of a run.
PROBE_EVERY_S = 0.2

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "pairs_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Record:
    index: int
    latency: float
    outcome: Outcome
    traced: bool = False
    probes: int = 0  # host probes run before this command


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in {line.split()[-1] for line in maps.splitlines() if "openblas" in line}:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Client:
    """Runs one CLI command at a time through ``cli.main`` in this process."""

    def __init__(self, cli, csv_path: Path):
        self.cli = cli
        self.csv_path = csv_path

    def run(self, op) -> tuple[float, Outcome]:
        stdin, out, err = io.StringIO(op.text), io.StringIO(), io.StringIO()
        self.csv_path.unlink(missing_ok=True)
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = stdin, out, err
        exception = None
        code = None
        try:
            t0 = time.perf_counter()
            try:
                code = self.cli.main(["--config", "-"])
            except Exception as exc:  # an exception escaping main is a failed op
                exception = type(exc).__name__
            t1 = time.perf_counter()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        outcome = Outcome(code, out.getvalue(), err.getvalue(), exception)
        if op.kind.startswith("lorenz") and self.csv_path.exists():
            outcome.csv = self.csv_path.read_text()
        return t1 - t0, outcome


class Stream:
    """Op j of a workload, generated once and reused when the stream wraps."""

    def __init__(self, workload: str, seed: int, csv_path: Path):
        self.workload = WORKLOADS[workload]
        self.pool = self.workload.pool
        self._seed = seed
        self._out = str(csv_path)
        self._ops: dict = {}

    def op(self, index: int):
        key = index % self.pool
        if key not in self._ops:
            self._ops[key] = self.workload.make(self._seed, key, self._out)
        return self._ops[key]


def timed_loop(client: Client, stream: Stream, first: int, seconds: float,
               probe: HostProbe, tracer=None) -> list[Record]:
    """Closed loop: the next command starts when the previous one returns.

    Each batch of configs is generated before any of it is timed, and the
    benchmark's own objects are frozen out of the garbage collector's scans.
    Only the ``cli.main`` calls count toward ``seconds``.  With a tracer,
    every other batch runs traced, so that traced and untraced commands
    share the machine's drifts in speed; at least one batch of each runs.
    The host probe runs before the first command and after every
    ``PROBE_EVERY_S`` of command time, outside the timed calls."""
    records: list[Record] = []
    busy = since_probe = 0.0
    probe.run()
    index = first
    traced = False
    least = 2 * BATCH if tracer is not None else 1
    while busy < seconds or len(records) < least:
        batch = [(j, stream.op(j)) for j in range(index, index + BATCH)]
        index += BATCH
        gc.collect()
        gc.freeze()
        traced = tracer is not None and not traced
        if traced:
            tracer.install()
        try:
            for j, op in batch:
                if traced:
                    tracer.op_id = j
                latency, outcome = client.run(op)
                records.append(Record(j, latency, outcome, traced, len(probe.times)))
                busy += latency
                since_probe += latency
                if since_probe >= PROBE_EVERY_S:
                    probe.run()
                    since_probe = 0.0
                if busy >= seconds and len(records) >= least:
                    break
        finally:
            if traced:
                tracer.uninstall()
    gc.unfreeze()
    return records


def measure_setup(op, probe: HostProbe, runs: int = SETUP_RUNS):
    """Median wall time of fresh ``python3 -m kanext.cli`` processes running
    one command, divided by the host's slowdown over them (the median of a
    probe before each process and one after the last); the same time
    unscaled; the largest resident set any of them reached; and their
    outputs."""
    first = len(probe.times)
    times, peaks, outputs = [], [], []
    for _ in range(runs):
        probe.run()
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("fresh.py")),
                               str(SRC)], input=op.text, capture_output=True, text=True,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
        fresh = json.loads(proc.stdout)
        times.append(fresh["wall_s"])
        peaks.append(fresh["peak_mb"])
        outputs.append((fresh["code"], fresh["stdout"], fresh["stderr"]))
    probe.run()
    slowdown = statistics.median(probe.times[first:]) / REFERENCE_S
    wall = statistics.median(times)
    return wall / slowdown, wall, max(peaks), outputs


def check(records, stream: Stream, checker: Checker, extra=()):
    """Reference checks for timed records and for (op, outcome) extras;
    returns the failure reason, or None, of each, in order."""
    lp = LpBatch()
    plans = {}
    for r in records:
        key = r.index % stream.pool
        if key not in plans:
            plans[key] = checker.expect(stream.op(r.index), lp)
    extra_plans = [checker.expect(op, lp) for op, _ in extra]
    lp.solve()
    timed = [plans[r.index % stream.pool](r.outcome) for r in records]
    return timed, [plan(outcome) for plan, (_, outcome) in zip(extra_plans, extra)]


def properties(records, stream: Stream) -> dict:
    """Input properties a later claim can cite by share."""
    ops = [stream.op(r.index) for r in records]
    pairs = sum(op.pairs for op in ops)
    extends = [op.candidates for op in ops if op.candidates is not None]
    return {
        "unequal_share": sum(op.unequal for op in ops) / pairs if pairs else 0.0,
        "mean_candidates": sum(extends) / len(extends) if extends else 0.0,
        "malformed_share": sum(op.malformed for op in ops) / len(ops),
        "repeat_share": sum(r.index >= stream.pool for r in records) / len(records),
    }


def command_timings(records, stream: Stream, slowdowns) -> dict:
    """Throughput and latency of the timed commands, each command's time
    divided by the host's slowdown around it."""
    latencies = [r.latency / f for r, f in zip(records, slowdowns)]
    busy = sum(latencies)
    return {
        "ops_per_s": len(records) / busy,
        "pairs_per_s": sum(stream.op(r.index).pairs for r in records) / busy,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
    }


def probe_line(probe, failures) -> str:
    by_kind: dict = {}
    for (op, _), f in zip(probe, failures):
        total, bad = by_kind.get(op.kind, (0, 0))
        by_kind[op.kind] = (total + 1, bad + (f is not None))
    failed = sum(f is not None for f in failures)
    detail = ", ".join(f"{k} {b}/{t}" for k, (t, b) in sorted(by_kind.items()))
    return (f"defect_probe fail_ratio {failed / len(probe):.6f} ({failed} of {len(probe)}: "
            f"{detail}); known defects, kept out of the measured stream")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kanext" / "cli.py").is_file():
        print(f"error: kanext sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        lines, result = run(args, tmp / "lorenz.csv")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that no run inherits another's
    caches or child-process memory peak; the last line merges the results
    with metrics named ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        *lines, last = proc.stdout.splitlines() or [""]
        print("\n".join(lines))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def run(args, csv_path: Path) -> tuple[list[str], dict]:
    from kanext import cli

    stream = Stream(args.workload, args.seed, csv_path)
    client = Client(cli, csv_path)
    checker = Checker(SRC / "kanext" / "schemas" / "cli_output.schema.json")
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}",
             "env: " + json.dumps(environment(), sort_keys=True)]

    warm = stream.op(0)
    host = HostProbe()
    setup = None if args.trace else measure_setup(warm, host)
    _, warm_outcome = client.run(warm)  # fills lazy numpy state and lp's caches

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    records = timed_loop(client, stream, 1, args.seconds, host, tracer)

    probe = []
    if args.workload == "cli_mix":
        probe = [(op, client.run(op)[1]) for op in defect_probe(args.seed, str(csv_path))]

    failures, extra = check(records, stream, checker, [(warm, warm_outcome), *probe])
    n = len(records)
    failed = sum(f is not None for f in failures)
    notes = []
    if extra[0] is not None:
        notes.append(f"warm-up op failed: {extra[0]}")
    if setup and any(o != (warm_outcome.code, warm_outcome.stdout, warm_outcome.stderr)
                     for o in setup[3]):
        notes.append("a fresh CLI process printed other output than the in-process run")
    first_failure = {}
    for r, f in zip(records, failures):
        if f is not None:
            first_failure.setdefault(stream.op(r.index).kind, f)
    notes += [f"FAILED {kind}: {f}" for kind, f in sorted(first_failure.items())]

    lines += notes
    lines.append(f"fail_ratio {failed / n:.6f} ({failed} of {n} ops)")
    props = properties(records, stream)
    lines.append("properties: " + json.dumps({k: round(v, 6) for k, v in props.items()}))
    if probe:
        lines.append(probe_line(probe, extra[1:]))

    if tracer is not None:
        traced = [r for r in records if r.traced]
        rates = [len(rs) / sum(r.latency for r in rs)
                 for rs in (traced, [r for r in records if not r.traced])]
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_ratio"] = (rates[0] / rates[1], "ratio")
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.tsv"
        tracer.write(spans_path)
        lines.append(f"spans: {len(tracer.spans)} in {spans_path.relative_to(ROOT)}; "
                     f"{len(traced)} traced ops at {rates[0]:.4f} ops/s, "
                     f"{n - len(traced)} untraced at {rates[1]:.4f} ops/s")
    else:
        slowdowns = [host.slowdown_near(r.probes) for r in records]
        wall = {"setup_s": setup[1], **command_timings(records, stream, [1.0] * n)}
        values = {"setup_s": setup[0], **command_timings(records, stream, slowdowns),
                  "peak_rss_mb": setup[2]}
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        lines.append(f"samples {n} ops, {n - int(0.9 * n)} beyond op_p90_ms"
                     + ("" if n >= 100 else "; fewer than 100 ops, p90 is unreliable"))
        lines.append(f"host slowdown {statistics.fmean(slowdowns):.4f} (mean over the ops; "
                     f"{len(host.times)} probes, reference {REFERENCE_S:g} s); "
                     "unscaled wall timings: "
                     + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))

    lines += [f"{name:<34} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0 and not notes,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


if __name__ == "__main__":
    sys.exit(main())
