"""The three benchmark workloads, each with its output checks.

Every workload returns an ``Outcome``: the samples it timed, in milliseconds
and in reference-kernel units (see calibrate.py), the number of operations
it attempted and failed, how many of those failures were wrong values (as
opposed to errors), and a details dict for the report. Only the public
giftex API is called, always through its module (``harness.play_game``,
not a bare ``play_game``), so that the traced run's patches take effect.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from giftex import (ALL_FEATURES, ActionRecord, ExperimentConfig, Open, Steal,
                    Swap, cli, counting, engine, harness)
from giftex.harness import MODEL_ORDER, enumerate_conditions

from calibrate import Speed, Unit
from tracer import Tracer, traced_giftex

HERE = Path(__file__).resolve().parent

FACTORIAL_PLAYERS = 29
FACTORIAL_GAMES = 40  # per condition
LARGE_N = 200
COUNT_CAPPED = (18, 3)  # (players, lifetime)
COUNT_CLOSED = 500  # players, no lifetime cap
COUNT_CLI_ARGS = ["count", "--players", "100"]
MIN_UNITS = 3  # timed units per run, however short --seconds is
# The closed form keeps no state between calls, so a session can time it
# more than once; the capped count cannot, because of its memo.
COUNT_CLOSED_REPEATS = 3
POST_REPEATS = 5  # effects-and-export timings per factorial pass
LARGE_N_TRACED_ROUNDS = 2
SUBPROCESS_TIMEOUT_S = 150


@dataclass
class Outcome:
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    details: dict = field(default_factory=dict)

    def op(self, ok: bool, mismatch: bool = False) -> None:
        """Record one operation; a mismatch is a wrong value, not an error."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if mismatch:
                self.mismatched += 1

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, slot: str, units: list[Unit], per: float = 1) -> None:
        """One sample of `slot`: the mean of `units`, divided by `per`, in
        milliseconds (`slot`_ms) and in runs of the ``interp`` kernel
        (`slot`_ref)."""
        scale = len(units) * per
        self.sample(f"{slot}_ms", sum(u.seconds for u in units) * 1e3 / scale)
        self.sample(f"{slot}_ref", sum(u.ref() for u in units) / scale)

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.samples.items()}


@functools.cache
def pins() -> dict:
    """The reference outputs in pins.json, written by pin.py."""
    return json.loads((HERE / "pins.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def int_digest(value: int) -> str:
    """Digest of an exact integer's bytes; never goes through a decimal."""
    return sha256(value.to_bytes((value.bit_length() + 7) // 8 or 1, "big"))


def nproc() -> int:
    return os.cpu_count() or 1


def stop_resource_tracker() -> None:
    """Stop the process that multiprocessing starts to track the pool's
    semaphores, and wait for it. Left alone, it outlives this process and
    exits only after it, so a run would end with a process still running."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Scratch:
    """A per-process scratch directory inside the checkout."""

    def __init__(self, root: Path) -> None:
        self.base = root / ".bench_tmp"
        self.path = self.base / str(os.getpid())

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.base.rmdir()  # only succeeds once no other run uses it


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def factorial_inputs(seed: int) -> tuple[ExperimentConfig, list]:
    config = ExperimentConfig(n_players=FACTORIAL_PLAYERS,
                              games_per_condition=FACTORIAL_GAMES,
                              base_seed=seed)
    return config, enumerate_conditions(config)


def large_n_inputs(seed: int) -> tuple[ExperimentConfig, list]:
    """(condition index, model, features, is_base) for BASE and FULL under
    each model; the condition index keys the per-game generator exactly as
    the factorial would."""
    config = ExperimentConfig(n_players=LARGE_N, base_seed=seed)
    games = []
    for mi, kind in enumerate(MODEL_ORDER):
        model = config.model_for(kind)
        games.append((mi * 16, model, frozenset(), True))
        games.append((mi * 16 + 15, model, ALL_FEATURES, False))
    return config, games


def build_inputs(workload: str, seed: int) -> None:
    if workload == "factorial":
        factorial_inputs(seed)
    elif workload == "large_n":
        large_n_inputs(seed)


# ---------------------------------------------------------------------------
# factorial
# ---------------------------------------------------------------------------

def _condition_ok(summary, condition, config) -> bool:
    n, games = config.n_players, config.games_per_condition
    chain = summary.mean_chain_length
    return (summary.index == condition.index
            and summary.games == games
            and sum(summary.strategy_counts.values()) == n * games
            and math.isfinite(summary.steals_per_game)
            and summary.steals_per_game >= 0
            and (chain >= 1.0 if summary.steals_per_game > 0 else chain == 0.0)
            and all(0.0 <= v <= 1.0 for v in summary.seat_means))


def export_hashes(summaries, effects, config, out_dir: Path) -> dict[str, str]:
    """CSV and JSON export; returns the files' sha256."""
    hashes = {}
    for fmt in ("csv", "json"):
        path = out_dir / f"experiment.{fmt}"
        harness.export(summaries, effects, fmt, path, config=config)
        hashes[fmt] = sha256(path.read_bytes())
    return hashes


def _effects_and_export(summaries, config, out_dir: Path) -> dict[str, str]:
    return export_hashes(summaries, harness.compute_effects(summaries), config,
                         out_dir)


def _pool_probe_s(config: ExperimentConfig, conditions: list, jobs: int) -> float:
    """Wall time of a pooled run of one game on each of `jobs` conditions:
    worker spawn, import and teardown, with next to no game work."""
    tiny = ExperimentConfig(n_players=config.n_players, games_per_condition=1,
                            base_seed=config.base_seed)
    start = time.perf_counter()
    harness.run_experiment(tiny, jobs=jobs, conditions=conditions[:jobs])
    return time.perf_counter() - start


def _pinned_hashes(seed: int):
    return pins()["factorial"].get(str(seed))


def factorial(seed: int, seconds: float, root: Path) -> Outcome:
    """Paper factorial passes with the process pool, until `seconds` pass."""
    out = Outcome()
    config, conditions = factorial_inputs(seed)
    jobs = nproc()
    games = len(conditions) * config.games_per_condition
    pinned = _pinned_hashes(seed)
    first = None
    passes = 0
    speed = Speed()
    with Scratch(root) as tmp:
        start = time.perf_counter()
        while passes < MIN_UNITS or time.perf_counter() - start < seconds:
            passes += 1
            # Kernels sampled inside the pass compete with the pool's
            # workers, but they track the pass's speed far better than
            # samples taken around it, when the CPUs are idle; their median
            # passes over the samples a worker preempted (README.md).
            with speed.unit(average=statistics.median) as unit:
                summaries = harness.run_experiment(config, jobs=jobs)
            out.timed("op1", [unit], per=games)
            for _ in range(POST_REPEATS):
                with speed.unit() as unit:
                    effects = harness.compute_effects(summaries)
                out.timed("op2", [unit])
                # Export to new files: ext4 starts writing a file that was
                # truncated and rewritten back to disk when it is closed.
                for old in tmp.iterdir():
                    old.unlink()
                with speed.unit() as unit:
                    hashes = export_hashes(summaries, effects, config, tmp)
                out.timed("op3", [unit])
            if first is None:
                first = (summaries, hashes)
            for cond, summary, ref in zip(conditions, summaries, first[0]):
                ok = _condition_ok(summary, cond, config) and summary == ref
                out.op(ok, mismatch=not ok)
            export_ok = hashes == first[1] and (pinned is None or hashes == pinned)
            out.op(export_ok, mismatch=not export_ok)
        # Spot-check jobs independence on two conditions, in this process.
        picks = sorted(random.Random(seed).sample(range(len(conditions)), 2))
        single = harness.run_experiment(config, jobs=1,
                                        conditions=[conditions[i] for i in picks])
        spot_ok = single == [first[0][i] for i in picks]
        out.op(spot_ok, mismatch=not spot_ok)
    # Pool workers are reaped children; count each of them at the largest
    # child's peak, next to this process's own peak.
    out.sample("peak_rss_mb", self_rss_mb() + jobs * children_rss_mb())
    out.details = {
        "jobs": jobs, "games_per_pass": games, "passes": passes,
        "export_sha256": first[1], "pinned_seed": pinned is not None,
        "factorial_games_per_s": 1e3 / out.medians()["op1_ms"],
    }
    return out


def factorial_traced(seed: int, root: Path, tracer: Tracer) -> Outcome:
    """One untraced pooled pass, one untraced jobs=1 pass, one traced jobs=1
    pass; exports of all three must be byte-identical."""
    out = Outcome()
    config, conditions = factorial_inputs(seed)
    jobs = nproc()
    with Scratch(root) as tmp:
        t0 = time.perf_counter()
        pooled = harness.run_experiment(config, jobs=jobs)
        pooled_hashes = _effects_and_export(pooled, config, tmp)
        t1 = time.perf_counter()
        hashes = _effects_and_export(harness.run_experiment(config, jobs=1),
                                     config, tmp)
        t2 = time.perf_counter()
        out.op(hashes == pooled_hashes, mismatch=hashes != pooled_hashes)
        with traced_giftex(tracer):
            t3 = time.perf_counter()
            hashes = _effects_and_export(harness.run_experiment(config, jobs=1),
                                         config, tmp)
            t4 = time.perf_counter()
        out.op(hashes == pooled_hashes, mismatch=hashes != pooled_hashes)
        pinned = _pinned_hashes(seed)
        if pinned is not None:
            out.op(pooled_hashes == pinned, mismatch=pooled_hashes != pinned)
        startup = [_pool_probe_s(config, conditions, jobs) for _ in range(3)]
    tracer.counters["harness.pool.startup_s"] = statistics.median(startup)
    tracer.counters["harness.pool.speedup"] = (t2 - t1) / (t1 - t0)
    out.details = {"jobs": jobs, "export_sha256": pooled_hashes,
                   "traced_wall_s": t4 - t3, "untraced_wall_s": t2 - t1}
    return out


# ---------------------------------------------------------------------------
# large_n
# ---------------------------------------------------------------------------

def _records_from_trace(trace: dict) -> list[ActionRecord]:
    records = []
    for rec in trace["trajectory"]:
        kind = rec["kind"]
        if kind == "open":
            action = Open(rec["gift"])
        elif kind == "steal":
            action = Steal(rec["victim"])
        else:
            action = Swap(rec["partner"])
        records.append(ActionRecord(rec["actor"], action, rec["round"],
                                    rec["position_in_chain"], rec["gift"]))
    return records


def _replay_ok(game, trace: dict, state) -> bool:
    n = game.result.n
    final = game.result.final_ownership
    bijection = (sorted(final) == list(range(1, n + 1))
                 and sorted(final.values()) == list(range(1, n + 1)))
    replayed = {seat: state.ownership[seat] for seat in range(1, n + 1)}
    return (bijection and replayed == final
            and sum(state.total_steals) == game.result.steal_count
            and trace["steal_count"] == game.result.steal_count
            and {int(k): v for k, v in trace["final_ownership"].items()} == final)


def _large_n_round(config, games, seed: int, round_index: int, out: Outcome,
                   speed: Speed | None = None) -> dict[str, list[Unit]]:
    """Play, trace and replay BASE and FULL under each model once; returns
    the timed units of BASE play, FULL play and trace-plus-replay (none
    without `speed`, as in the traced run)."""
    units: dict[str, list[Unit]] = {"base": [], "full": [], "replay": []}
    for cond_index, model, features, is_base in games:
        rng = harness.game_rng(seed, cond_index, round_index)
        with speed.unit() if speed else contextlib.nullcontext() as play:
            game = harness.play_game(config.n_players, config.limits, model,
                                     features, config.behavior, rng)
        with speed.unit() if speed else contextlib.nullcontext() as replay:
            trace = json.loads(json.dumps(harness.game_trace(game)))
            state = engine.replay(config.n_players, config.limits,
                                  _records_from_trace(trace))
        if speed:
            units["base" if is_base else "full"].append(play)
            units["replay"].append(replay)
        ok = _replay_ok(game, trace, state)
        out.op(ok, mismatch=not ok)
    return units


def large_n(seed: int, seconds: float) -> Outcome:
    """Rounds of six n=200 games, each played, traced and replayed."""
    out = Outcome()
    config, games = large_n_inputs(seed)
    speed = Speed()
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_UNITS or time.perf_counter() - start < seconds:
        units = _large_n_round(config, games, seed, rounds, out, speed)
        out.timed("op1", units["base"])
        out.timed("op2", units["full"])
        out.timed("op3", units["replay"])
        rounds += 1
    out.sample("peak_rss_mb", self_rss_mb())
    med = out.medians()
    out.details = {
        "players": LARGE_N, "rounds": rounds, "games": out.attempted,
        "base_games_per_s": 1e3 / med["op1_ms"],
        "full_games_per_s": 1e3 / med["op2_ms"],
        "replay_games_per_s": 1e3 / med["op3_ms"],
    }
    return out


def large_n_traced(seed: int, tracer: Tracer) -> Outcome:
    """The same rounds untraced, then traced, for the tracing overhead."""
    out = Outcome()
    config, games = large_n_inputs(seed)
    t0 = time.perf_counter()
    for r in range(LARGE_N_TRACED_ROUNDS):
        _large_n_round(config, games, seed, r, out)
    t1 = time.perf_counter()
    with traced_giftex(tracer):
        t2 = time.perf_counter()
        for r in range(LARGE_N_TRACED_ROUNDS):
            _large_n_round(config, games, seed, r, out)
        t3 = time.perf_counter()
    out.details = {"traced_wall_s": t3 - t2, "untraced_wall_s": t1 - t0}
    return out


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def count_session(trace: bool) -> dict:
    """One counting session; runs in a fresh interpreter so the counting
    memo starts empty. Returns timings, digests and the CLI outcome."""
    tracer = Tracer()
    speed = Speed()
    stdout, stderr = io.StringIO(), io.StringIO()
    scope = traced_giftex(tracer) if trace else contextlib.nullcontext()
    with scope:
        with speed.unit(tick=not trace) as capped_unit:
            capped = counting.count_trajectories(*COUNT_CAPPED)
        closed_units, closed = [], []
        for _ in range(COUNT_CLOSED_REPEATS):
            with speed.unit(tick=not trace) as unit:
                closed.append(counting.count_trajectories(COUNT_CLOSED))
            closed_units.append(unit)
        with speed.unit(tick=False) as cli_unit, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(COUNT_CLI_ARGS)
    result = {
        "capped_s": capped_unit.seconds, "capped_ref": capped_unit.ref(),
        "closed_s": [u.seconds for u in closed_units],
        "closed_ref": [u.ref("interp", "bigint") for u in closed_units],
        "cli_s": cli_unit.seconds, "speeds": speed.samples,
        "wall_s": sum(u.seconds for u in [capped_unit, *closed_units, cli_unit]),
        "capped_digest": int_digest(capped), "closed_digests": [int_digest(c) for c in closed],
        "cli_rc": rc, "cli_stdout_digest": sha256(stdout.getvalue().encode()),
        "cli_stderr": stderr.getvalue().strip(),
        "peak_rss_mb": self_rss_mb(),
    }
    if trace:
        result["tracer"] = {"calls": tracer.calls, "total_s": tracer.total_s,
                            "self_s": tracer.self_s, "counters": tracer.counters}
    return result


def _run_session(run_py: Path, trace: bool) -> dict:
    """One count session in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(run_py), "--probe", "count-session",
         "--trace", "1" if trace else "0"],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_session(session: dict, out: Outcome) -> None:
    pinned = pins()["count"]
    expected = [pinned["capped"]] + [pinned["closed"]] * len(session["closed_digests"])
    digests = [session["capped_digest"], *session["closed_digests"]]
    for digest, pin in zip(digests, expected):
        out.op(digest == pin, mismatch=digest != pin)
    if session["cli_rc"] != 0:
        out.op(False)  # an error exit, not a wrong value
    else:
        ok = session["cli_stdout_digest"] == pinned["cli_stdout"]
        out.op(ok, mismatch=not ok)


def count(seconds: float, run_py: Path) -> Outcome:
    """Counting sessions, each in a fresh interpreter, until `seconds` pass.
    The inputs are fixed by the workload, so no seed is needed."""
    out = Outcome()
    speed = Speed()
    start = time.perf_counter()
    sessions = []
    while len(sessions) < MIN_UNITS or time.perf_counter() - start < seconds:
        # The session's process is timed from here, interpreter start and
        # exit included; its speed also counts the samples taken inside it.
        with speed.unit(tick=False) as process:
            session = _run_session(run_py, trace=False)
        process.speeds += session["speeds"]
        sessions.append(session)
        _check_session(session, out)
        out.timed("op3", [process])
        out.sample("op1_ms", session["capped_s"] * 1e3)
        out.sample("op1_ref", session["capped_ref"])
        for seconds, ref in zip(session["closed_s"], session["closed_ref"]):
            out.sample("op2_ms", seconds * 1e3)
            out.sample("op2_ref", ref)
        out.sample("peak_rss_mb", session["peak_rss_mb"])
    med = out.medians()
    out.details = {
        "sessions": len(sessions),
        "count_capped_s": med["op1_ms"] / 1e3,
        "count_closed_s": med["op2_ms"] / 1e3,
        "cli_ms": statistics.median(s["cli_s"] * 1e3 for s in sessions),
        "cli_exit_codes": sorted({s["cli_rc"] for s in sessions}),
        "cli_stderr": sessions[0]["cli_stderr"],
    }
    return out


def count_traced(run_py: Path, tracer: Tracer) -> Outcome:
    """One untraced and one traced session; the traced one's spans are
    merged into `tracer`."""
    out = Outcome()
    plain = _run_session(run_py, trace=False)
    traced = _run_session(run_py, trace=True)
    for session in (plain, traced):
        _check_session(session, out)
    spans = traced["tracer"]
    tracer.calls.update(spans["calls"])
    tracer.total_s.update(spans["total_s"])
    tracer.self_s.update(spans["self_s"])
    tracer.counters.update(spans["counters"])
    out.details = {"traced_wall_s": traced["wall_s"],
                   "untraced_wall_s": plain["wall_s"],
                   "cli_stderr": traced["cli_stderr"]}
    return out
