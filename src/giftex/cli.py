"""Command line entry point: single-game simulation, the factorial
experiment, and exact trajectory counting.

Exit codes: 0 success, 2 usage or invalid parameter values, 1 I/O failure.
The seed is --seed, else the environment variable GIFTEX_SEED, else the
default: 42 for simulate, the config file's base_seed for experiment.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from typing import Optional, Sequence

from . import counting, harness
from .behavior import BehaviorParams, feature_label, feature_set
from .engine import Open, Steal, StealLimits
from .errors import GiftexError
from .valuation import ModelKind

DEFAULT_SEED = 42


def _env_seed(value: Optional[int], default: int) -> int:
    """`value` if given, else GIFTEX_SEED if set, else `default`."""
    if value is not None:
        return value
    env = os.environ.get("GIFTEX_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"GIFTEX_SEED must be an integer, got {env!r}") from None
    return default


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giftex",
        description="Gift exchange game simulator and trajectory counter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="play one game and print the outcome")
    sim.add_argument("--players", type=int, default=29)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--features", default="",
                     help="comma list from pi,sc,ad,bs (default: none)")
    sim.add_argument("--model", default="independent",
                     choices=[k.value for k in ModelKind])
    sim.add_argument("--trace", action="store_true",
                     help="print every action record")

    exp = sub.add_parser("experiment", help="run the 48-condition factorial")
    exp.add_argument("--config", default=None, help="JSON config file")
    exp.add_argument("--games", type=int, default=None,
                     help="games per condition (default from config: 1000)")
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--out", default=".", help="output directory")
    exp.add_argument("--format", default="csv", choices=["csv", "json"])
    exp.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: machine parallelism)")

    cnt = sub.add_parser("count", help="print the exact trajectory count")
    cnt.add_argument("--players", type=int, required=True)
    cnt.add_argument("--lifetime", type=int, default=0,
                     help="lifetime steal cap per gift; 0 = unlimited")
    cnt.add_argument("--with-swap", action="store_true",
                     help="include the n final-swap choices")
    cnt.add_argument("--oracle", action="store_true",
                     help="force brute-force enumeration (players <= 6)")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = _env_seed(args.seed, DEFAULT_SEED)
    features = feature_set(*args.features.split(","))
    config = harness.ExperimentConfig(n_players=args.players, base_seed=seed)
    model = config.model_for(ModelKind(args.model))
    rng = harness.game_rng(config.base_seed, 0, 0)
    game = harness.play_game(
        args.players, config.limits, model, features, BehaviorParams(), rng)
    result = game.result
    print(f"players: {args.players}  model: {args.model}  "
          f"features: {feature_label(features)}  seed: {seed}")
    if args.trace:
        for actor, action, k, position, gift in result.trajectory:
            if type(action) is Open:
                desc = f"open gift {gift}"
            elif type(action) is Steal:
                desc = f"steal gift {gift} from seat {action.victim}"
            elif action.partner is None:
                desc = "keep (swap declined)"
            else:
                desc = f"swap with seat {action.partner}"
            print(f"  round {k:>3} chain {position:>2}  seat {actor:>3}: "
                  f"{desc}")
    for seat in range(1, args.players + 1):
        gift = result.final_ownership[seat]
        print(f"seat {seat:>3} -> gift {gift:>3}  "
              f"(value {game.seat_values[seat - 1]:.6f})")
    print(f"steals: {result.steal_count}")
    print(f"chain lengths: {list(result.chain_lengths)}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.config is not None:
        config = harness.load_config(args.config)
    else:
        config = harness.ExperimentConfig()
    overrides = {"base_seed": _env_seed(args.seed, config.base_seed)}
    if args.games is not None:
        overrides["games_per_condition"] = args.games
    config = replace(config, **overrides)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    # An unusable --out fails here, before the run, not after it.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = harness.run_experiment(config, jobs=jobs)
    effects = harness.compute_effects(summaries)
    destination = out_dir / f"experiment.{args.format}"
    harness.export(summaries, effects, args.format, destination, config=config)
    for s in summaries:
        print(f"{s.model}/{s.features}: steals_per_game={s.steals_per_game:.6f} "
              f"mean_chain_length={s.mean_chain_length:.6f}")
    print(f"wrote {destination}")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    n = args.players
    if args.oracle:
        limits = StealLimits(per_round=1, lifetime=args.lifetime)
        value = counting.brute_force_count(n, limits)
    else:
        value = counting.count_trajectories(n, args.lifetime)
    if args.with_swap:
        value *= n
    # str(int) refuses more than sys.get_int_max_str_digits() digits (4300 by
    # default); Decimal converts exactly without touching that global limit.
    print(Decimal(value))
    return 0


_COMMANDS = {"simulate": _cmd_simulate, "experiment": _cmd_experiment,
             "count": _cmd_count}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GiftexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
