"""Every integer count of the package is checked by `errors.require_int`: a
bool, a float, a string or a value below the count's minimum is refused with
a `ConfigurationError` that names the field, never coerced. Every record
argument, a `StealLimits`, a `BehaviorParams` or a `ValuationModel`, is
refused by name, through `errors.require_type`, when it is of any other type,
before any draw."""

from dataclasses import astuple

import numpy as np
import pytest

from giftex.behavior import BehaviorParams
from giftex.counting import (brute_force_count, count_chains,
                             count_trajectories, round_action_count)
from giftex.engine import (STANDARD_LIMITS, GameState, Open, StealLimits,
                           replay, run_game)
from giftex.errors import ConfigurationError
from giftex.harness import (ExperimentConfig, draw_inputs,
                            enumerate_conditions, game_rng, play, play_game,
                            run_experiment)
from giftex.valuation import ModelKind, ValuationModel, generate_valuations

CONFIG = ExperimentConfig(n_players=4, games_per_condition=1)

# (entry point taking the count, the field its message names, its minimum)
COUNTS = {
    "GameState": (GameState, "player count", 1),
    "StealLimits.per_round": (lambda v: StealLimits(v, 0), "per_round", 0),
    "StealLimits.lifetime": (lambda v: StealLimits(1, v), "lifetime", 0),
    "ExperimentConfig.n_players": (
        lambda v: ExperimentConfig(n_players=v), "n_players", 1),
    "ExperimentConfig.games_per_condition": (
        lambda v: ExperimentConfig(games_per_condition=v),
        "games_per_condition", 1),
    "ExperimentConfig.base_seed": (
        lambda v: ExperimentConfig(base_seed=v), "base_seed", 0),
    "run_experiment.jobs": (
        lambda v: run_experiment(CONFIG, jobs=v,
                                 conditions=enumerate_conditions(CONFIG)[:1]),
        "jobs", 1),
    "count_trajectories.n": (count_trajectories, "player count", 1),
    "count_trajectories.lifetime": (
        lambda v: count_trajectories(3, v), "lifetime", 0),
    "count_chains.lifetime": (
        lambda v: count_chains((((1, 0), 1),), v), "lifetime", 1),
    "round_action_count": (round_action_count, "round index", 1),
    "brute_force_count": (
        lambda v: brute_force_count(v, STANDARD_LIMITS), "player count", 1),
    "generate_valuations": (
        lambda v: generate_valuations(ValuationModel(ModelKind.INDEPENDENT), v,
                                      np.random.default_rng(0)),
        "player count", 1),
}


@pytest.mark.parametrize("bad", ["bool", "float", "string", "below-minimum"])
@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_is_refused_by_name(entry, bad):
    call, name, minimum = COUNTS[entry]
    value = {"bool": True, "float": 2.5, "string": "3",
             "below-minimum": minimum - 1}[bad]
    with pytest.raises(ConfigurationError, match=f"^{name} must be "):
        call(value)
    call(minimum)  # the minimum itself is accepted


def opener(state, actor, rng):
    """Open the lowest wrapped gift."""
    return Open(state.wrapped[0])


MODEL = CONFIG.model_for(ModelKind.INDEPENDENT)
INPUTS = draw_inputs(MODEL, 4, CONFIG.behavior, game_rng(1, 0, 0))
LOG = run_game(4, STANDARD_LIMITS, opener).trajectory

# (entry point taking the record and a generator, the field its message
# names, an accepted record)
RECORDS = {
    "GameState": (lambda v, rng: GameState(4, v), "limits", STANDARD_LIMITS),
    "run_game": (lambda v, rng: run_game(4, v, opener), "limits",
                 STANDARD_LIMITS),
    "replay": (lambda v, rng: replay(4, v, LOG), "limits", STANDARD_LIMITS),
    "brute_force_count": (lambda v, rng: brute_force_count(4, v), "limits",
                          STANDARD_LIMITS),
    "play.limits": (
        lambda v, rng: play(INPUTS, v, frozenset(), CONFIG.behavior, rng),
        "limits", STANDARD_LIMITS),
    "play.params": (
        lambda v, rng: play(INPUTS, CONFIG.limits, frozenset(), v, rng),
        "params", CONFIG.behavior),
    "play_game.params": (
        lambda v, rng: play_game(4, CONFIG.limits, MODEL, frozenset(), v, rng),
        "params", CONFIG.behavior),
    "draw_inputs.model": (
        lambda v, rng: draw_inputs(v, 4, CONFIG.behavior, rng), "model", MODEL),
    "draw_inputs.params": (
        lambda v, rng: draw_inputs(MODEL, 4, v, rng), "params", CONFIG.behavior),
}


@pytest.mark.parametrize("bad", ["none", "tuple", "other-record"])
@pytest.mark.parametrize("entry", RECORDS)
def test_every_record_is_refused_by_name(entry, bad):
    call, name, good = RECORDS[entry]
    value = {"none": None, "tuple": astuple(good),
             "other-record": (BehaviorParams() if type(good) is StealLimits
                              else STANDARD_LIMITS)}[bad]
    rng = game_rng(1, 0, 1)
    with pytest.raises(ConfigurationError,
                       match=f"^{name} must be a {type(good).__name__}, got "):
        call(value, rng)
    assert rng.bit_generator.state == game_rng(1, 0, 1).bit_generator.state
    call(good, rng)  # the record itself is accepted
