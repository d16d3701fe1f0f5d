"""giftex: a gift exchange game simulator and exact-counting toolkit.

The game: n seated players each contribute one wrapped gift. Seat k opens a
wrapped gift or steals an opened one on its primary turn; stealing displaces
the victim, who acts next, and the chain ends when someone opens. Seat 1 may
swap with anyone once all rounds finish. On top of the base mechanics sit four
toggleable behavioral features (partial information, social costs, adaptive
dynamics, biased selection), three valuation models, six decision strategies,
a 48-condition factorial experiment harness, and exact combinatorics for the
number of distinct game trajectories.

The public names below load with their module on first use (PEP 562), so
`import giftex.counting` or `giftex count` does not pay for numpy, which
only the play modules need.
"""

from importlib import import_module

_EXPORTS = {
    "behavior": ("ALL_FEATURES", "BehaviorParams", "Feature", "SocialState",
                 "adaptive_prob_linear", "feature_label", "feature_set",
                 "frustration_decay", "frustration_on_theft",
                 "selection_weights"),
    "beliefs": ("wrapped_gift_value",),
    "counting": ("UNLIMITED", "brute_force_count", "count_chains",
                 "count_trajectories", "round_action_count"),
    "engine": ("STANDARD_LIMITS", "ActionRecord", "GameResult", "GameState",
               "Open", "Steal", "StealLimits", "Swap", "replay", "run_game"),
    "errors": ("ConfigurationError", "GiftexError", "IllegalMoveError",
               "PhaseError"),
    "harness": ("Condition", "ConditionSummary", "ExperimentConfig",
                "GameInputs", "PlayedGame", "compute_effects", "draw_inputs",
                "enumerate_conditions", "export", "game_rng", "game_trace",
                "load_config", "play", "play_game", "run_condition",
                "run_experiment"),
    "strategies": ("STRATEGY_ORDER", "Strategy", "best_target",
                   "choose_open_gift", "decide"),
    "valuation": ("AppearanceVector", "ModelKind", "ValuationMatrix",
                  "ValuationModel", "generate_appearance",
                  "generate_valuations"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
