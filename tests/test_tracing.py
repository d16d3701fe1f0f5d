"""Smoke test for the benchmark's traced run: every name the tracer patches
must still exist and still be reached, so a rename fails here first."""

import sys
from pathlib import Path

import numpy as np

from giftex import ALL_FEATURES, BehaviorParams, STANDARD_LIMITS, engine, harness
from giftex.counting import count_trajectories
from giftex.valuation import ModelKind, ValuationModel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer, traced_giftex  # noqa: E402


def test_traced_game_and_count_reach_every_layer():
    tracer = Tracer()
    with traced_giftex(tracer):
        game = harness.play_game(8, STANDARD_LIMITS,
                                 ValuationModel(ModelKind.CORRELATED),
                                 ALL_FEATURES, BehaviorParams(),
                                 harness.game_rng(42, 47, 0))
        assert count_trajectories(6, 2) > 0
    assert game.result.steal_count > 0
    # the tracer counts records through the field it reads off the result
    assert tracer.counters["engine.records"] == len(game.result.trajectory)
    for name in ("harness.decide_callback", "strategies.best_target",
                 "engine.GameState.apply_steal", "engine.GameState.apply_open",
                 "harness.play_game", "counting.count_chains"):
        assert tracer.calls[name] > 0, name
    # The input draws are looked up in harness's namespace, where the
    # tracer patches them: once each for the one game.
    for name in ("valuation.generate_valuations",
                 "valuation.generate_appearance"):
        assert tracer.calls[name] == 1, name
    assert harness.run_game is engine.run_game  # patches undone on exit
