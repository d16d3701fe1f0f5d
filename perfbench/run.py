"""giftex benchmark: the paper's factorial, large-n games and exact counting.

Run from the repository root:

    python3 perfbench/run.py --workload factorial --seed 1 --seconds 25 --trace 0

Workloads are ``factorial``, ``large_n`` and ``count`` (see README.md in
this directory). With ``--trace 0`` the last line of standard output is one
JSON object holding the end-to-end metrics listed in ``BENCHMARK.json``;
with ``--trace 1`` it holds the per-layer metrics from a separate traced
run. The line before it is a report with machine facts, sample counts,
check details and the workload's named metrics. giftex is imported from
``src/`` next to this directory; without it the script exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

RUN_PY = Path(__file__).resolve()
ROOT = RUN_PY.parent.parent
SRC = ROOT / "src"
WORKLOADS = ("factorial", "large_n", "count")
SETUP_PROBES = 9  # set-up and reference pairs per run, before and after the work
SETUP_TIMEOUT_S = 120
# The reference interpreter imports only numpy, the bulk of giftex's import.
SETUP_REF_ARGV = ["-c", "import numpy"]
SETUP_REF_S = 0.2  # the scale of setup_s: the reference's nominal wall time
COVERAGE_MIN = 0.5  # share of the traced wall time the wrappers must cover


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh-interpreter steps the benchmark runs as children
    parser.add_argument("--probe", choices=("setup", "count-session"),
                        help=argparse.SUPPRESS)
    return parser


def _machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "isolation": "none: the benchmark cannot pin CPUs or drop the file cache",
    }


def _wall_s(argv: list[str]) -> float:
    """Wall time of one child process, which must exit with code 0."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv])
    # A blocking wait returns the moment the child exits; Popen.wait with
    # a timeout polls, which rounds times up to its 50 ms sleeps.
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    finally:
        watchdog.cancel()
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, proc.args)
    return time.perf_counter() - start


def _setup_pairs(workload: str, seed: int, probes: int) -> list[tuple]:
    """(set-up, reference) wall times: a fresh interpreter that imports
    giftex and builds the workload's inputs, then a reference interpreter
    started right after it."""
    return [(_wall_s([str(RUN_PY), "--probe", "setup", "--workload", workload,
                      "--seed", str(seed)]),
             _wall_s(SETUP_REF_ARGV)) for _ in range(probes)]


def _spread(values: list[float]) -> dict:
    summary = {"n": len(values), "median": statistics.median(values),
               "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def _end_to_end(outcome) -> tuple[dict, dict]:
    """Medians of the run's samples, with the sample spreads for the report."""
    values = outcome.medians()
    values["ok_frac"] = (outcome.attempted - outcome.failed) / outcome.attempted
    return values, {"samples": {name: _spread(v)
                                for name, v in outcome.samples.items()}}


def _per_layer(tracer, details: dict, outcome) -> tuple[dict, dict]:
    """Span statistics and counters, plus the tracing overhead and the
    coverage check: the part of the traced wall time no wrapper covers,
    `trace.unwrapped_s`, stays within 1 - COVERAGE_MIN of it."""
    wall = details["traced_wall_s"]
    untraced = details["untraced_wall_s"]
    unwrapped = wall - tracer.self_sum_s()
    coverage_ok = unwrapped <= (1.0 - COVERAGE_MIN) * wall
    outcome.op(coverage_ok)  # the instrument failed, not the program
    decisions = tracer.calls.get("harness.decide_callback", 0)
    steals = tracer.counters.get("harness.decide_callback.steals", 0)
    values = {
        "engine.records": 0, "harness.pool.startup_s": 0.0,
        "harness.pool.speedup": 0.0,
        **tracer.counters,
        "harness.decide_callback.steal_ratio":
            steals / decisions if decisions else 0.0,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.unwrapped_s": unwrapped,
    }
    stats = {"calls": tracer.calls, "self_s": tracer.self_s, "s": tracer.total_s}
    for span in tracer.calls:
        for stat, table in stats.items():
            values[f"{span}.{stat}"] = table[span]
    return values, {"coverage": {"ok": coverage_ok,
                                 "covered_frac": 1.0 - unwrapped / wall}}


def _select(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, in declared order, with their declared units.
    A layer that did not run on this workload reads 0."""
    metrics = {}
    for metric in declared:
        name = metric["name"]
        value = values.get(name)
        if value is None:
            if name.rpartition(".")[2] not in ("calls", "self_s", "s"):
                raise KeyError(f"benchmark produced no value for {name}")
            value = 0
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def _run(args) -> int:
    import workloads
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = args.seed
    if args.trace:
        tracer = Tracer()
        if args.workload == "factorial":
            outcome = workloads.factorial_traced(seed, ROOT, tracer)
        elif args.workload == "large_n":
            outcome = workloads.large_n_traced(seed, tracer)
        else:
            outcome = workloads.count_traced(RUN_PY, tracer)
        values, extra = _per_layer(tracer, outcome.details, outcome)
        metrics = _select(values, spec["per_layer"])
    else:
        # Set-up is sampled on both sides of the work, so that one slow
        # phase of the machine does not set the whole run's figure.
        before = SETUP_PROBES // 2
        setup = _setup_pairs(args.workload, seed, before)
        if args.workload == "factorial":
            outcome = workloads.factorial(seed, args.seconds, ROOT)
        elif args.workload == "large_n":
            outcome = workloads.large_n(seed, args.seconds)
        else:
            outcome = workloads.count(args.seconds, RUN_PY)
        setup += _setup_pairs(args.workload, seed, SETUP_PROBES - before)
        # The machine's speed drifts between runs by a third or more, and
        # the reference interpreter drifts with it: setup_s is set-up wall
        # time over reference wall time, scaled by SETUP_REF_S.
        for wall, ref in setup:
            outcome.sample("setup_wall_s", wall)
            outcome.sample("setup_ref_wall_s", ref)
            outcome.sample("setup_s", wall / ref * SETUP_REF_S)
        values, extra = _end_to_end(outcome)
        metrics = _select(values, spec["end_to_end"])
    report = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(),
        "failed_frac": outcome.failed / outcome.attempted,
        "mismatched": outcome.mismatched,
        "details": outcome.details, **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": outcome.mismatched == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "giftex" / "__init__.py").is_file():
        print(f"error: no giftex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import giftex

    if Path(giftex.__file__).resolve().parent != SRC / "giftex":
        print(f"error: imported giftex from {giftex.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.probe == "setup":
        workloads.build_inputs(args.workload, args.seed)
        return 0
    if args.probe == "count-session":
        print(json.dumps(workloads.count_session(trace=bool(args.trace))))
        return 0
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    try:
        return _run(args)
    finally:
        workloads.stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
