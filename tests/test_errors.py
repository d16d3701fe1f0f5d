"""Every integer count of the package is checked by `errors.require_int`: a
bool, a float, a string or a value below the count's minimum is refused with
a `ConfigurationError` that names the field, never coerced."""

import numpy as np
import pytest

from giftex.counting import (brute_force_count, count_trajectories,
                             round_action_count)
from giftex.engine import STANDARD_LIMITS, GameState, StealLimits
from giftex.errors import ConfigurationError
from giftex.harness import (ExperimentConfig, enumerate_conditions,
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
