"""In-memory call tracing for the benchmark's traced run.

The tracer wraps public giftex functions from the outside: it replaces the
module or class attribute a caller looks up, so nothing under ``src/`` is
edited. Each wrapped call is a span. Spans are aggregated per name into a
call count, a total time and a self time; self time is the span's duration
minus the time covered by wrapped calls made inside it, so the traced wall
time minus the sum of all self times is the part no wrapper covers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from giftex import (behavior, beliefs, counting, engine, harness, strategies,
                    valuation)
from giftex.engine import Steal


class Tracer:
    """Per-name span statistics plus free-form counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._child_time: list[float] = []  # one accumulator per open span

    def wrap(self, name: str, fn):
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        calls.setdefault(name, 0)
        total_s.setdefault(name, 0.0)
        self_s.setdefault(name, 0.0)
        stack = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def self_sum_s(self) -> float:
        """Sum of all self times: the time inside wrapped calls."""
        return sum(self.self_s.values())


def _patch(patches: list, owner, attr: str, replacement) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


@contextmanager
def traced_giftex(tracer: Tracer):
    """Wrap the public giftex layer functions for the duration of the block.

    Functions are patched where their callers look them up: harness imports
    most layer functions into its own namespace, strategies calls its own
    module globals, and engine transitions are looked up on the class.
    """
    patches: list = []
    chain_keys: set = set()
    w = tracer.wrap

    def run_game_with_decide_span(n, limits, decide, swap=None, rng=None,
                                  on_round_end=None):
        def counted_decide(state, actor, game_rng):
            action = decide(state, actor, game_rng)
            if type(action) is Steal:
                tracer.count("harness.decide_callback.steals")
            return action

        result = traced_run_game(n, limits,
                                 w("harness.decide_callback", counted_decide),
                                 swap=swap, rng=rng, on_round_end=on_round_end)
        tracer.count("engine.records", len(result.trajectory))
        return result

    traced_run_game = w("engine.run_game", engine.run_game)
    wrapped = {
        "valuation.generate_valuations": valuation.generate_valuations,
        "valuation.generate_appearance": valuation.generate_appearance,
        "beliefs.wrapped_gift_value": beliefs.wrapped_gift_value,
        "behavior.adaptive_prob_linear": behavior.adaptive_prob_linear,
        "behavior.frustration_decay": behavior.frustration_decay,
        "behavior.frustration_on_theft": behavior.frustration_on_theft,
        "strategies.decide": strategies.decide,
        "strategies.best_target": strategies.best_target,
        "strategies.choose_open_gift": strategies.choose_open_gift,
        "harness.game_rng": harness.game_rng,
        "harness.play_game": harness.play_game,
        "harness.run_condition": harness.run_condition,
        "harness.game_trace": harness.game_trace,
        "harness.compute_effects": harness.compute_effects,
        "harness.export": harness.export,
        "engine.replay": engine.replay,
        "counting.count_chains": _keyed(chain_keys, counting.count_chains),
        "counting.count_trajectories": counting.count_trajectories,
        "counting.round_action_count": counting.round_action_count,
    }
    t = {name: w(name, fn) for name, fn in wrapped.items()}
    try:
        # harness looks these up in its own namespace
        for name, attr in (
                ("valuation.generate_valuations", "generate_valuations"),
                ("valuation.generate_appearance", "generate_appearance"),
                ("beliefs.wrapped_gift_value", "wrapped_gift_value"),
                ("behavior.adaptive_prob_linear", "adaptive_prob_linear"),
                ("behavior.frustration_decay", "frustration_decay"),
                ("behavior.frustration_on_theft", "frustration_on_theft"),
                ("strategies.decide", "strategy_decide"),
                ("strategies.choose_open_gift", "choose_open_gift"),
                ("harness.game_rng", "game_rng"),
                ("harness.play_game", "play_game"),
                ("harness.run_condition", "run_condition"),
                ("harness.game_trace", "game_trace"),
                ("harness.compute_effects", "compute_effects"),
                ("harness.export", "export")):
            _patch(patches, harness, attr, t[name])
        _patch(patches, harness, "run_game", run_game_with_decide_span)
        _patch(patches, strategies, "best_target", t["strategies.best_target"])
        _patch(patches, strategies, "choose_open_gift",
               t["strategies.choose_open_gift"])
        _patch(patches, engine, "replay", t["engine.replay"])
        _patch(patches, engine.GameState, "apply_open",
               w("engine.GameState.apply_open", engine.GameState.apply_open))
        _patch(patches, engine.GameState, "apply_steal",
               w("engine.GameState.apply_steal", engine.GameState.apply_steal))
        _patch(patches, valuation.ValuationMatrix, "to_jsonable",
               w("valuation.ValuationMatrix.to_jsonable",
                 valuation.ValuationMatrix.to_jsonable))
        # count_chains recurses through the module global, so patching it
        # there also wraps every recursive call.
        _patch(patches, counting, "count_chains", t["counting.count_chains"])
        _patch(patches, counting, "count_trajectories",
               t["counting.count_trajectories"])
        _patch(patches, counting, "round_action_count",
               t["counting.round_action_count"])
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        tracer.counters["counting.count_chains.distinct_keys"] = len(chain_keys)


def _keyed(keys: set, count_chains):
    """count_chains that also records each distinct (start, targets) key."""

    def keyed_count_chains(start, targets):
        keys.add((start, targets))
        return count_chains(start, targets)

    return keyed_count_chains
