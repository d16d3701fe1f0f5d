"""giftex: a gift exchange game simulator and exact-counting toolkit.

The game: n seated players each contribute one wrapped gift. Seat k opens a
wrapped gift or steals an opened one on its primary turn; stealing displaces
the victim, who acts next, and the chain ends when someone opens. Seat 1 may
swap with anyone once all rounds finish. On top of the base mechanics sit four
toggleable behavioral features (partial information, social costs, adaptive
dynamics, biased selection), three valuation models, six decision strategies,
a 48-condition factorial experiment harness, and exact combinatorics for the
number of distinct game trajectories.
"""

from .behavior import (ALL_FEATURES, BehaviorParams, Feature, SocialState,
                       adaptive_prob_linear, feature_label, feature_set,
                       frustration_decay, frustration_on_theft,
                       selection_weights)
from .beliefs import wrapped_gift_value
from .counting import (UNLIMITED, brute_force_count, count_chains,
                       count_trajectories, round_action_count)
from .engine import (STANDARD_LIMITS, ActionRecord, GameResult, GameState,
                     Open, Steal, StealLimits, Swap, replay, run_game)
from .errors import (ConfigurationError, GiftexError, IllegalMoveError,
                     PhaseError)
from .harness import (Condition, ConditionSummary, ExperimentConfig,
                      GameInputs, PlayedGame, compute_effects, draw_inputs,
                      enumerate_conditions, export, game_rng, game_trace,
                      load_config, play, play_game, run_condition,
                      run_experiment)
from .strategies import (STRATEGY_ORDER, Strategy, best_target,
                         choose_open_gift, decide)
from .valuation import (AppearanceVector, ModelKind, ValuationMatrix,
                        ValuationModel, generate_appearance,
                        generate_valuations)

__version__ = "0.1.0"
