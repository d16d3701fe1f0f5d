"""Experiment harness: conditions, per-game seeding, aggregation, export."""

import copy
import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from giftex import engine, harness, strategies
from giftex.behavior import ALL_FEATURES, BehaviorParams, Feature, SocialState
from giftex.engine import (ActionRecord, GameState, Open, Steal, StealLimits,
                           Swap, replay)
from giftex.errors import ConfigurationError
from giftex.harness import (Condition, ConditionSummary, ExperimentConfig,
                            GameInputs, compute_effects, draw_inputs,
                            enumerate_conditions, export, game_rng, game_trace,
                            load_config, play, play_game, run_condition,
                            run_experiment)
from giftex.strategies import STRATEGY_ORDER, Strategy
from giftex.valuation import (ModelKind, generate_appearance,
                              generate_valuations)

SMALL = ExperimentConfig(n_players=8, games_per_condition=20, base_seed=7)


def play_fixed(n, limits, model, features, params, rng, strategy):
    """A game with every seat on `strategy`: the valuations and appearance
    drawn from `rng` as `draw_inputs` draws them, no strategy draw, then
    `play` from the same generator."""
    vm = generate_valuations(model, n, rng)
    app = generate_appearance(vm.quality, params.sigma_a, rng)
    return play(GameInputs(vm, app, (strategy,) * n), limits, features,
                params, rng)


# -- conditions -----------------------------------------------------------------

def test_48_conditions_in_canonical_order():
    conds = enumerate_conditions(SMALL)
    assert len(conds) == 48
    assert conds[0].model_kind is ModelKind.INDEPENDENT
    assert conds[0].features == frozenset() and conds[0].label == "BASE"
    assert conds[15].label == "FULL"
    assert conds[16].model_kind is ModelKind.CORRELATED
    assert (conds[47].model_kind, conds[47].label) == (ModelKind.NEGATIVE, "FULL")
    assert [c.index for c in conds] == list(range(48))


def test_half_the_subsets_contain_each_feature():
    conds = enumerate_conditions(SMALL)
    for feature in Feature:
        per_model = sum(1 for c in conds[:16] if feature in c.features)
        assert per_model == 8


# -- config ----------------------------------------------------------------------

def test_config_round_trip_via_dict():
    cfg = ExperimentConfig(n_players=11, games_per_condition=5, base_seed=9,
                           limits=StealLimits(1, 3), rho=0.5, sigma_neg=0.1)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_file_defaults_and_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "games_per_condition": 3,
        "behavior": {"c0": 0.1, "tau": 1.0},
        "models": {"rho": 0.9},
    }))
    cfg = load_config(path)
    assert cfg.n_players == 29 and cfg.base_seed == 42
    assert cfg.games_per_condition == 3
    assert cfg.behavior.c0 == 0.1 and cfg.behavior.tau == 1.0
    assert cfg.behavior.alpha == 2.0  # untouched default
    assert cfg.rho == 0.9 and cfg.sigma_neg == 0.2


def test_equal_configs_dump_the_same_bytes():
    # An int used to be echoed as given by the constructor but as a float by
    # `from_dict`, so two equal configs wrote different JSON.
    built = ExperimentConfig(rho=1, sigma_neg=1, behavior=BehaviorParams(c0=1))
    loaded = ExperimentConfig.from_dict(
        {"models": {"rho": 1, "sigma_neg": 1}, "behavior": {"c0": 1}})
    assert built == loaded == ExperimentConfig(
        rho=1.0, sigma_neg=1.0, behavior=BehaviorParams(c0=1.0))
    dump = json.dumps(built.to_dict(), sort_keys=True)
    assert dump == json.dumps(loaded.to_dict(), sort_keys=True)
    assert '"rho": 1.0' in dump and '"c0": 1.0' in dump


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"player_count": 5})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"behavior": {"c_zero": 1}})


@pytest.mark.parametrize("data", [
    {"n_players": 2.9},
    {"games_per_condition": True},
    {"base_seed": "7"},
    {"steal_limits": {"lifetime": 1.5}},
    {"steal_limits": {"per_round": 1, "lifetme": 2}},
    {"steal_limits": 3},
    {"behavior": {"c0": math.nan}},
    {"behavior": {"tau": math.inf}},
    {"behavior": {"sigma_a": "0.3"}},
    {"behavior": {"c0": True}},
    {"behavior": {"tau": None}},
    {"models": {"rho": False}},
    {"models": {"sigma_neg": "0.2"}},
    {"models": {"sigma_neg": math.nan}},
    {"models": {"rho": math.inf}},
])
def test_config_rejects_bad_numbers(data):
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("kwargs", [
    {"n_players": 2.9},
    {"games_per_condition": True},
    {"base_seed": 7.0},
])
def test_config_constructor_rejects_non_integers(kwargs):
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"limits": (1, 0)},
    {"behavior": {"c0": 1}},
    {"rho": True},
    {"rho": "0.7"},
    {"sigma_neg": True},
    {"sigma_neg": None},
])
def test_config_constructor_rejects_bad_field_types(kwargs):
    # A tuple of limits or a dict of behavior used to construct and then
    # fail in play with AttributeError; sigma_neg=True ran with sigma 1.
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        ExperimentConfig(**kwargs)


def test_config_rejects_negative_seed():
    # numpy refuses negative seeds only once a game's generator is built,
    # which under --jobs is inside a worker; the record refuses them first.
    with pytest.raises(ConfigurationError, match="base_seed"):
        ExperimentConfig(base_seed=-1)
    assert ExperimentConfig(base_seed=0).base_seed == 0


non_negative = st.floats(0.0, 1e6)
positive = st.floats(1e-9, 1e6)


@given(cfg=st.builds(
    ExperimentConfig,
    n_players=st.integers(1, 500),
    games_per_condition=st.integers(1, 10**6),
    base_seed=st.integers(0, 2**32),
    limits=st.builds(StealLimits, st.integers(0, 5), st.integers(0, 5)),
    behavior=st.builds(
        BehaviorParams,
        **{**{f.name: non_negative for f in fields(BehaviorParams)},
           "mu0": st.floats(-1e6, 1e6), "sigma0_sq": positive,
           "sigma_a": positive}),
    rho=st.floats(0.0, 1.0),
    sigma_neg=positive,
))
def test_config_dict_round_trip_is_complete(cfg):
    """Property: the JSON config echo records every field of the run."""
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


# -- single game -------------------------------------------------------------------

def test_play_game_is_seed_deterministic():
    cfg = SMALL
    model = cfg.model_for(ModelKind.CORRELATED)
    a = play_game(8, cfg.limits, model, frozenset({Feature.SC}), cfg.behavior,
                  game_rng(7, 3, 11))
    b = play_game(8, cfg.limits, model, frozenset({Feature.SC}), cfg.behavior,
                  game_rng(7, 3, 11))
    assert a.result == b.result
    assert a.inputs.strategies == b.inputs.strategies


def test_different_game_indices_differ():
    cfg = SMALL
    model = cfg.model_for(ModelKind.INDEPENDENT)
    a = play_game(8, cfg.limits, model, frozenset(), cfg.behavior, game_rng(7, 0, 0))
    b = play_game(8, cfg.limits, model, frozenset(), cfg.behavior, game_rng(7, 0, 1))
    assert a.result != b.result


def test_seat_values_are_true_values_of_final_gifts():
    cfg = SMALL
    model = cfg.model_for(ModelKind.INDEPENDENT)
    game = play_game(8, cfg.limits, model, frozenset(Feature), cfg.behavior,
                     game_rng(7, 1, 2))
    for seat in range(1, 9):
        gift = game.result.final_ownership[seat]
        assert game.seat_values[seat - 1] == pytest.approx(
            game.inputs.valuations.values[seat - 1, gift - 1])


def test_a_large_game_holds_no_python_float_per_value():
    """Play reads the value matrix through float64 row views, not (n+1)²
    Python floats. One n=200 BASE game (independent model, default
    params) peaked at 2.61 MB under `tracemalloc` with `tolist` rows and
    at 1.35 MB with the views (Python 3.11.7, numpy 2.4.6); the float
    list alone is about 1.3 MB."""
    cfg = ExperimentConfig()
    model = cfg.model_for(ModelKind.INDEPENDENT)
    tracemalloc.start()
    try:
        play_game(200, cfg.limits, model, frozenset(), cfg.behavior,
                  game_rng(7, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9e6


def test_base_and_pi_only_identical_for_always_steal_population():
    # With every seat pinned to always_steal, no decision consults beliefs,
    # so partial information changes nothing game-by-game.
    cfg = SMALL
    model = cfg.model_for(ModelKind.CORRELATED)
    for idx in range(10):
        base = play_fixed(8, cfg.limits, model, frozenset(), cfg.behavior,
                          game_rng(7, 5, idx), Strategy.ALWAYS_STEAL)
        pi = play_fixed(8, cfg.limits, model, frozenset({Feature.PI}),
                        cfg.behavior, game_rng(7, 5, idx),
                        Strategy.ALWAYS_STEAL)
        assert base.result == pi.result


def test_biased_selection_at_large_temperature_plays_out():
    # exp(tau * v) overflows a float for tau * v > 709; the softmax weights
    # are taken relative to the top value, so they stay in [0, 1].
    params = BehaviorParams(tau=1000.0)
    for features in (frozenset({Feature.BS}), frozenset(Feature)):
        game = play_game(29, StealLimits(), ExperimentConfig().model_for(
            ModelKind.INDEPENDENT), features, params, game_rng(42, 8, 0))
        assert sorted(game.result.final_ownership.values()) == list(range(1, 30))


def test_biased_selection_at_large_temperature_stays_by_weight():
    # At tau = 1000 each open is all but surely the heaviest wrapped gift:
    # with signal gaps above 0.05, any other draw has odds below e^-50. The
    # weights normalized over all gifts underflow to 0.0 once the heavy gifts
    # are open, and a draw over a zero total lands on the highest remaining id.
    params = BehaviorParams(tau=1000.0)
    model = ExperimentConfig().model_for(ModelKind.INDEPENDENT)
    game = play_fixed(6, StealLimits(), model, frozenset({Feature.BS}), params,
                      game_rng(2, 0, 0), Strategy.ALWAYS_OPEN)
    signals = game.inputs.appearance.signals
    assert np.diff(np.sort(signals)).min() > 0.05
    opened = [gift for *_, gift in game.result.trajectory[:-1]]
    assert opened == [int(g) + 1 for g in np.argsort(-signals)]


def test_game_trace_is_json_serializable(decode_block):
    """After a JSON round trip the trace's arrays decode to the game's own,
    bit for bit, and its other fields read back the game."""
    cfg = SMALL
    model = cfg.model_for(ModelKind.NEGATIVE)
    game = play_game(8, cfg.limits, model, frozenset({Feature.BS}),
                     cfg.behavior, game_rng(7, 9, 0))
    doc = json.loads(json.dumps(game_trace(game)))
    assert doc["players"] == 8
    assert len(doc["trajectory"]) == len(game.result.trajectory)
    assert doc["steal_count"] == game.result.steal_count
    inputs = game.inputs
    assert doc["strategies"] == [s.value for s in inputs.strategies]
    assert doc["valuations"]["model"] == "negative"
    assert doc["appearance"]["noise_sd"] == cfg.behavior.sigma_a
    for decoded, original in (
            (doc["valuations"]["values"], inputs.valuations.values),
            (doc["valuations"]["quality"], inputs.valuations.quality),
            (doc["appearance"]["signals"], inputs.appearance.signals)):
        decoded = decode_block(decoded)
        assert decoded.dtype == original.dtype
        assert decoded.shape == original.shape
        assert decoded.tobytes() == original.tobytes()


def test_game_trace_trajectory_is_pinned():
    """The trajectory section of one n = 29 FULL game's trace (independent
    model, condition 15, seed 42, game 0), as dumped before the arrays moved
    to float64 blocks; only those arrays changed format."""
    cfg = ExperimentConfig()
    game = play_game(29, cfg.limits, cfg.model_for(ModelKind.INDEPENDENT),
                     frozenset(Feature), cfg.behavior, game_rng(42, 15, 0))
    trajectory = json.dumps(game_trace(game)["trajectory"]).encode()
    assert hashlib.sha256(trajectory).hexdigest() == (
        "374636c74de85771228e29daf3b55501396ef6f0ed91e6ee8838bdfe127162d1")


def test_a_trace_rebuilt_with_fresh_actions_replays():
    """A trace read back from JSON, rebuilt with new action objects, replays:
    replay compares actions by value, not by the play's shared instances."""
    cfg = SMALL
    game = play_fixed(8, cfg.limits, cfg.model_for(ModelKind.CORRELATED),
                      frozenset(), cfg.behavior, game_rng(7, 16, 0),
                      Strategy.ALWAYS_STEAL)
    doc = json.loads(json.dumps(game_trace(game)))
    make = {"open": lambda r: Open(r["gift"]),
            "steal": lambda r: Steal(r["victim"]),
            "swap": lambda r: Swap(r["partner"])}
    log = [ActionRecord(r["actor"], make[r["kind"]](r), r["round"],
                        r["position_in_chain"], r["gift"])
           for r in doc["trajectory"]]
    assert log == list(game.result.trajectory)
    assert {type(rec.action) for rec in log} == {Open, Steal, Swap}
    assert not any(rec.action is move[1]
                   for rec, move in zip(log, game.result.trajectory))
    end = replay(8, cfg.limits, log)
    assert end.ownership[1:] == [game.result.final_ownership[seat]
                                 for seat in range(1, 9)]


# -- condition aggregation -----------------------------------------------------------

def test_run_condition_builds_no_action_record(monkeypatch):
    """Play logs moves as plain tuples and builds no `ActionRecord`, also
    when the trajectory is read; each tuple holds a record's fields."""
    built = []

    class CountingRecord(ActionRecord):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(engine, "ActionRecord", CountingRecord)
    run_condition(Condition(16, ModelKind.CORRELATED, frozenset()), SMALL)
    game = play_game(8, SMALL.limits, SMALL.model_for(ModelKind.CORRELATED),
                     frozenset(), SMALL.behavior, game_rng(7, 16, 0))
    log = game.result.trajectory
    assert built == []
    assert {type(rec) for rec in log} == {tuple}
    assert {len(rec) for rec in log} == {len(ActionRecord._fields)}


def test_play_hands_out_one_frozen_action_per_id():
    """Every game of a process returns the same immutable Open(g) and
    Steal(s) objects, equal to freshly built ones."""
    def actions(game_index):
        game = play_fixed(8, SMALL.limits,
                          SMALL.model_for(ModelKind.CORRELATED), frozenset(),
                          SMALL.behavior, game_rng(7, 16, game_index),
                          Strategy.COIN_FLIP)
        return {(type(a), a): a for _, a, *_ in game.result.trajectory[:-1]}

    first, second = actions(0), actions(1)
    shared = first.keys() & second.keys()
    assert {kind for kind, _ in shared} == {Open, Steal}
    for key in shared:
        assert first[key] is second[key]
    for action in first.values():
        name = "gift" if type(action) is Open else "victim"
        fresh = type(action)(getattr(action, name))
        assert action == fresh and hash(action) == hash(fresh)
        with pytest.raises(FrozenInstanceError):
            setattr(action, name, 1)
    with pytest.raises(FrozenInstanceError):
        Swap(2).partner = 3


def test_condition_summary_consistency():
    """Two aggregation routes must meet: sum over strategies of (count*mean)
    equals games times the sum of seat means."""
    cond = Condition(0, ModelKind.INDEPENDENT, frozenset())
    summary = run_condition(cond, SMALL)
    total_by_strategy = sum(
        summary.strategy_means[s.value] * summary.strategy_counts[s.value]
        for s in STRATEGY_ORDER)
    total_by_seat = summary.games * sum(summary.seat_means)
    assert total_by_strategy == pytest.approx(total_by_seat, rel=1e-9)
    assert sum(summary.strategy_counts.values()) == summary.games * SMALL.n_players


def test_mean_chain_length_is_pooled_over_nonzero_chains():
    cond = Condition(2, ModelKind.INDEPENDENT, frozenset({Feature.SC}))
    cfg = ExperimentConfig(n_players=6, games_per_condition=30, base_seed=3)
    summary = run_condition(cond, cfg)
    steals = chains = 0
    model = cfg.model_for(cond.model_kind)
    for idx in range(cfg.games_per_condition):
        game = play_game(6, cfg.limits, model, cond.features, cfg.behavior,
                         game_rng(3, 2, idx))
        steals += game.result.steal_count
        chains += sum(1 for c in game.result.chain_lengths if c > 0)
    assert summary.steals_per_game == pytest.approx(steals / 30)
    assert summary.mean_chain_length == pytest.approx(steals / chains)


def test_every_decision_is_made_empty_handed(monkeypatch):
    """`apply_open` and `apply_steal` refuse an actor holding a gift, so
    every seat that scans is empty-handed in every game played: all 48
    conditions at n = 2, 3 and 7, and the 24 SC-off conditions at n = 65,
    where play passes each seat's `top_table`."""
    holdings, tables = [], 0
    scan = strategies.best_target

    def recording_scan(state, actor, values, order, social, params, top=b""):
        nonlocal tables
        holdings.append(state.ownership[actor])
        tables += bool(top)
        return scan(state, actor, values, order, social, params, top)

    monkeypatch.setattr(strategies, "best_target", recording_scan)
    for n in (2, 3, 7, 65):
        config = ExperimentConfig(n_players=n, games_per_condition=4,
                                  base_seed=n)
        run_experiment(config, conditions=[
            c for c in enumerate_conditions(config)
            if n < 65 or Feature.SC not in c.features])
    assert tables and set(holdings) == {None}


def test_takeable_flags_follow_every_transition(monkeypatch):
    """After every transition of played games, each gift's `takeable` flag
    is the steal rule recomputed from state: opened, not chain-locked and
    under the lifetime cap; and each seat's `offer` entry is the gift it
    holds while that gift is takeable, else 0. All 48 conditions, n = 2, 7
    and 29, lifetime caps 0 to 3; then one correlated BASE game at n = 255,
    the largest n the engine keeps `offer` for, and one at n = 256, where
    it keeps none."""
    seen = {"transitions": 0, "locked": 0, "capped": 0, "offered": 0}

    def check(state):
        lifetime, total = state.limits.lifetime, state.total_steals
        rule = [False] + [
            state.holder[g] is not None and g not in state.chain_locked
            and not (lifetime and total[g] >= lifetime)
            for g in range(1, state.n + 1)]
        assert state.takeable == rule
        if state.n > engine.OFFER_MAX_N:
            assert state.offer is None
        else:
            held = [0] + [state.ownership[s] or 0
                          for s in range(1, state.n + 1)]
            assert list(state.offer) == [g if rule[g] else 0 for g in held]
            seen["offered"] += state.n + 1 - state.offer.count(0)
        seen["transitions"] += 1
        seen["locked"] += len(state.chain_locked)
        seen["capped"] += sum(lifetime > 0 and t >= lifetime for t in total)

    for name in ("apply_open", "apply_steal", "final_swap"):
        def checked(self, *args, _transition=getattr(GameState, name)):
            _transition(self, *args)
            check(self)
            return self

        monkeypatch.setattr(GameState, name, checked)
    for n in (2, 7, 29):
        for cap in range(4):
            cfg = ExperimentConfig(n_players=n, games_per_condition=1,
                                   base_seed=100 * n + cap,
                                   limits=StealLimits(1, cap))
            for cond in enumerate_conditions(cfg):
                play_game(n, cfg.limits, cfg.model_for(cond.model_kind),
                          cond.features, cfg.behavior,
                          game_rng(cfg.base_seed, cond.index, 0))
    assert seen["transitions"] and seen["locked"] and seen["capped"]
    assert seen["offered"]
    for n in (255, 256):
        cfg = ExperimentConfig(n_players=n, limits=StealLimits(1, 1))
        before = seen["transitions"]
        play_game(n, cfg.limits, cfg.model_for(ModelKind.CORRELATED),
                  frozenset(), cfg.behavior, game_rng(100 * n, 16, 0))
        assert seen["transitions"] > before + n


def column_add_sums(values, opened):
    """The per-seat sums `play_game` once kept by adding the opened gift's
    value column to every seat on every open: the reference the lazily
    caught-up sums must match bit for bit."""
    opened_sum = np.zeros(values.shape[0] + 1)
    for g in opened:
        opened_sum[1:] += values.T[g - 1]
    return opened_sum


def left_to_right(xs):
    total = 0.0
    for x in xs:
        total += x
    return total


def test_unseen_row_total_adds_left_to_right():
    # 1.0 + 1e-16 rounds back to 1.0; a compensated sum (math.fsum, or
    # builtin sum from Python 3.12) keeps the two 1e-16 and ends a float up.
    row = [0.0, 1.0, 1e-16, 1e-16]
    assert left_to_right(row) != math.fsum(row)
    sums = harness._SeenSums([[0.0] * 4, row], np.array([row[1:]]))
    assert sums.unseen(1, []) == left_to_right(row)


@pytest.mark.parametrize("seed", range(4))
def test_seen_sums_match_the_per_open_column_add(seed):
    """Random opens, read by random seats at random times: each catch-up
    must make the column add's floats exactly, and so must the row sum
    less them. Magnitudes spread over six decades, so a changed order of
    additions shows in the last bits."""
    rng = np.random.default_rng(seed)
    n = 30
    values = rng.random((n, n)) * 10.0 ** rng.integers(-3, 4, size=(n, n))
    padded = np.zeros((n + 1, n + 1))
    padded[1:, 1:] = values
    rows = padded.tolist()
    sums = harness._SeenSums(rows, values)
    opened = []
    for g in rng.permutation(n) + 1:
        opened.append(int(g))
        want = column_add_sums(values, opened)
        for seat in rng.choice(n, size=int(rng.integers(0, 4)), replace=False):
            seat = int(seat) + 1
            assert sums.seen(seat, opened).hex() == float(want[seat]).hex()
            assert sums.unseen(seat, opened).hex() == (
                left_to_right(rows[seat]) - float(want[seat])).hex()
    for seat in range(1, n + 1):  # caught up from wherever it last read
        assert sums.seen(seat, opened).hex() == float(want[seat]).hex()


def test_always_open_seats_never_scan(monkeypatch):
    scanned = []
    scan = strategies.best_target

    def recording_scan(state, actor, *rest):
        scanned.append(actor)
        return scan(state, actor, *rest)

    monkeypatch.setattr(strategies, "best_target", recording_scan)
    model = SMALL.model_for(ModelKind.INDEPENDENT)
    for idx, features in enumerate((frozenset(), frozenset(Feature))):
        scanned.clear()
        game = play_game(29, SMALL.limits, model, features, SMALL.behavior,
                         game_rng(7, 0, idx))
        openers = {seat for seat, s in enumerate(game.inputs.strategies, 1)
                   if s is Strategy.ALWAYS_OPEN}
        assert openers and scanned
        assert openers.isdisjoint(scanned)
        scanned.clear()
        play_fixed(8, SMALL.limits, model, features, SMALL.behavior,
                   game_rng(7, 1, idx), Strategy.ALWAYS_OPEN)
        assert scanned == []


def test_run_experiment_subset_matches_run_condition():
    conds = enumerate_conditions(SMALL)[:3]
    via_experiment = run_experiment(SMALL, jobs=1, conditions=conds)
    direct = [run_condition(c, SMALL) for c in conds]
    assert via_experiment == direct


# -- effects ---------------------------------------------------------------------------

def fake_table(model, steals):
    """A full 16-cell table for `model`: steals per game from `steals`, keyed
    by feature set, 0.0 in every other cell; chain length 2.0 throughout."""
    return [ConditionSummary(
        index=c.index, model=model, features=c.label, features_set=c.features,
        games=10, steals_per_game=steals.get(c.features, 0.0),
        mean_chain_length=2.0, seat_means=(0.5, 0.6),
        strategy_means={s.value: 0.5 for s in STRATEGY_ORDER},
        strategy_counts={s.value: 10 for s in STRATEGY_ORDER})
        for c in enumerate_conditions(SMALL)[:16]]


def steal_effects(model, steals):
    effects = compute_effects(fake_table(model, steals))
    return ({f: e["steals_per_game"]
             for f, e in effects["main_effects"][model].items()},
            {pair: e["steals_per_game"]
             for pair, e in effects["interactions"][model].items()})


def test_main_effect_and_interaction_formulas():
    main, inter = steal_effects("independent", {
        frozenset(): 100.0,
        frozenset({Feature.PI}): 103.0,
        frozenset({Feature.SC}): 60.0,
        frozenset({Feature.PI, Feature.SC}): 70.0,
    })
    assert main["SC"] == pytest.approx(-40.0)
    assert main["PI"] == pytest.approx(3.0)
    assert inter["PIxSC"] == pytest.approx(70.0 - 103.0 - 60.0 + 100.0)


def test_additive_world_has_zero_interaction():
    _, inter = steal_effects("independent", {
        frozenset(): 100.0,
        frozenset({Feature.AD}): 90.0,
        frozenset({Feature.BS}): 110.0,
        frozenset({Feature.AD, Feature.BS}): 100.0,
    })
    assert inter["ADxBS"] == pytest.approx(0.0)


def test_effect_requires_all_conditions():
    base_only = [s for s in fake_table("independent", {}) if not s.features_set]
    with pytest.raises(ValueError, match="missing condition independent/PI$"):
        compute_effects(base_only)
    no_pair = [s for s in fake_table("independent", {})
               if s.features_set != {Feature.PI, Feature.SC}]
    with pytest.raises(ValueError, match="missing condition independent/PI\\+SC"):
        compute_effects(no_pair)


def test_identical_behavior_gives_zero_main_effect():
    main, _ = steal_effects("negative", {
        frozenset(): 55.0,
        frozenset({Feature.PI}): 55.0,
    })
    assert main["PI"] == 0.0


# -- export -----------------------------------------------------------------------------

def small_run():
    cfg = ExperimentConfig(n_players=5, games_per_condition=4, base_seed=1)
    return cfg, run_experiment(cfg, jobs=1)


def test_csv_shape_and_determinism(tmp_path):
    cfg, summaries = small_run()
    effects = compute_effects(summaries)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export(summaries, effects, "csv", p1, config=cfg)
    export(summaries, effects, "csv", p2, config=cfg)
    lines = p1.read_text().splitlines()
    assert len(lines) == 49  # header + 48 conditions
    header = lines[0].split(",")
    assert header[:6] == ["condition_id", "model", "features", "games",
                          "steals_per_game", "mean_chain_length"]
    assert header[6:11] == [f"seat_{i}" for i in range(1, 6)]
    assert header[11:] == [f"strat_{s.value}" for s in STRATEGY_ORDER]
    assert p1.read_bytes() == p2.read_bytes()


def test_json_round_trips_summary_fields(tmp_path):
    cfg, summaries = small_run()
    effects = compute_effects(summaries)
    path = tmp_path / "out.json"
    export(summaries, effects, "json", path, config=cfg)
    doc = json.loads(path.read_text())
    assert doc["config"]["n_players"] == 5
    assert len(doc["conditions"]) == 48
    for row, summary in zip(doc["conditions"], summaries):
        assert row["condition_id"] == f"{summary.model}/{summary.features}"
        assert row["games"] == summary.games
        assert row["steals_per_game"] == round(summary.steals_per_game, 6)
        for i, v in enumerate(summary.seat_means):
            assert row[f"seat_{i + 1}"] == round(v, 6)
    assert "main_effects" in doc["effects"]
    assert "PIxSC" in doc["effects"]["interactions"]["independent"]


def test_export_bytes_are_pinned(tmp_path):
    """Golden bytes of a small full factorial: a change to play,
    aggregation or export that moves any output byte fails here."""
    cfg = ExperimentConfig(n_players=8, games_per_condition=5, base_seed=42)
    summaries = run_experiment(cfg, jobs=1)
    effects = compute_effects(summaries)
    want = {
        "csv": "fa3cce5872e6962c605350601205bbb913bcc3740b49be516aa28c2bacc7c3c5",
        "json": "0caab6dbbf0c44e57fbce51d917e166822f4509ac8cadad5d4867399da3a73da",
    }
    for fmt, digest in want.items():
        path = tmp_path / f"experiment.{fmt}"
        export(summaries, effects, fmt, path, config=cfg)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, fmt


def game_line(game) -> str:
    """One game's draws as text: every trajectory record, the strategies,
    the steal count and each seat's value by `float.hex`."""
    moves = ";".join(
        f"{actor},{type(action).__name__},{k},{position},{gift},"
        f"{getattr(action, 'victim', getattr(action, 'partner', ''))}"
        for actor, action, k, position, gift in game.result.trajectory)
    strats = ",".join(s.value for s in game.inputs.strategies)
    values = ",".join(v.hex() for v in game.seat_values)
    return f"{moves}|{strats}|{game.result.steal_count}|{values}\n"


def test_draws_are_pinned_across_all_48_conditions():
    """Golden digest of per-game draws over the whole factorial: n = 2, 7
    and 29 under lifetime caps 0, 1 and 2, plus one game per condition at
    n = 120. The exports round to six digits and pin one size; this fails
    on any change to a decision, a draw or a seat value's last bit."""
    grid = [(n, cap, 5) for n in (2, 7, 29) for cap in (0, 1, 2)]
    grid.append((120, 0, 1))
    digest = hashlib.sha256()
    for n, cap, games in grid:
        cfg = ExperimentConfig(n_players=n, games_per_condition=games,
                               base_seed=10 * n + cap,
                               limits=StealLimits(1, cap))
        for cond in enumerate_conditions(cfg):
            model = cfg.model_for(cond.model_kind)
            for idx in range(games):
                game = play_game(n, cfg.limits, model, cond.features,
                                 cfg.behavior,
                                 game_rng(cfg.base_seed, cond.index, idx))
                digest.update(game_line(game).encode())
    assert digest.hexdigest() == (
        "9342f68cb98ce519fd6a35b1ed69c152d0e0a3a2543075456f3927054802e045")


def test_draws_are_pinned_past_one_byte():
    """One BASE and one FULL game per model at n = 256 and 300, the first
    sizes past `OFFER_MAX_N` (no `offer`, no top tables) and past a byte of
    gift id (uint16 order rows), digested as above; the digest was taken
    before play read its orders as id views and its draws by the block."""
    digest = hashlib.sha256()
    for n in (256, 300):
        cfg = ExperimentConfig(n_players=n, base_seed=n)
        for mi, kind in enumerate(harness.MODEL_ORDER):
            for mask, features in ((0, frozenset()), (15, ALL_FEATURES)):
                game = play_game(n, cfg.limits, cfg.model_for(kind), features,
                                 cfg.behavior, game_rng(n, 16 * mi + mask, 0))
                digest.update(game_line(game).encode())
    assert digest.hexdigest() == (
        "b1b9684ac1f4451728b18da42dc80ac671ea481dc9a138b548c319f830db963b")


DRAW_SPANS = (1, 2, 6, 29, 200, 1000, 2**31 + 1, 3 << 30, 2**32)


def draw_script(seed, length, spans=DRAW_SPANS, p_random=0.4):
    """`length` calls, each ("random",) or ("integers", span), drawn from
    their own generator."""
    rng = np.random.default_rng(seed)
    return [("random",) if rng.random() < p_random
            else ("integers", spans[int(rng.integers(0, len(spans)))])
            for _ in range(length)]


@pytest.mark.parametrize("script", [
    [],
    [("random",)] * 64,  # exactly one block: nothing to rewind
    [("integers", 2**31 + 1)] * 150,  # Lemire's rejection about half the time
    [("integers", 1)] * 5 + [("random",)] * 3,  # a span of 1 draws nothing
    draw_script(1, 9),
    draw_script(2, 300),
    draw_script(3, 1000, p_random=0.1),
])
def test_play_draws_match_numpy_and_rewind_to_its_state(script):
    """`_Draws` returns what numpy's `random()` and `integers(0, k)` return
    on a deep copy of the same generator, in any mix, starting from a
    buffered high half (left by an odd-sized `integers` draw). After
    `close` the generator's state, and so its next draws, are numpy's."""
    base = np.random.default_rng(2026)
    base.integers(0, 6, size=7)
    assert base.bit_generator.state["has_uint32"] == 1
    ref, played = copy.deepcopy(base), copy.deepcopy(base)
    draws = harness._Draws(played.bit_generator)
    for call in script:
        if call[0] == "random":
            got, want = draws.random(), ref.random()
            assert type(got) is float
        else:
            got, want = draws.integers(0, call[1]), ref.integers(0, call[1])
            assert type(got) is int
        assert got == want
    draws.close()
    assert played.bit_generator.state == ref.bit_generator.state
    assert played.random() == ref.random()
    assert played.integers(0, 29, size=3).tolist() == ref.integers(
        0, 29, size=3).tolist()


class NumpyDraws:
    """Play's draws as numpy's own calls on the game's generator: the path
    `_Draws` must match draw for draw, and in the state it leaves."""

    def __init__(self, bit_generator):
        self.gen = np.random.Generator(bit_generator)

    def random(self):
        return self.gen.random()

    def integers(self, low, high):
        return self.gen.integers(low, high)

    def close(self):
        pass


@pytest.mark.parametrize("n", [29, 30, 200])
def test_play_leaves_the_generator_where_numpy_calls_do(monkeypatch, n):
    """BASE, BS alone (the weighted open) and FULL under each model, at an
    odd and an even n (the strategy draw leaves a buffered half only at odd
    n) and at 200: the same game, and the same generator state after it,
    as with every draw made by numpy."""
    cfg = ExperimentConfig(n_players=n)
    for kind in ModelKind:
        model = cfg.model_for(kind)
        for features in (frozenset(), frozenset({Feature.BS}), ALL_FEATURES):
            fast = game_rng(5, n, len(features))
            slow = game_rng(5, n, len(features))
            game = play_game(n, cfg.limits, model, features, cfg.behavior,
                             fast)
            with monkeypatch.context() as patch:
                patch.setattr(harness, "_Draws", NumpyDraws)
                want = play_game(n, cfg.limits, model, features, cfg.behavior,
                                 slow)
            assert game_line(game) == game_line(want)
            assert fast.bit_generator.state == slow.bit_generator.state


def test_play_refuses_a_generator_it_cannot_read_by_the_word():
    """Only PCG64's raw words make numpy's doubles and bounded ints as
    `_Draws` builds them; any other bit generator is refused before a
    draw."""
    rng = np.random.Generator(np.random.MT19937(7))
    untouched = copy.deepcopy(rng)
    with pytest.raises(ConfigurationError, match="PCG64"):
        play_game(5, SMALL.limits, SMALL.model_for(ModelKind.INDEPENDENT),
                  frozenset(), SMALL.behavior, rng)
    assert rng.random(4).tolist() == untouched.random(4).tolist()


def test_play_from_inputs_refuses_a_generator_it_cannot_read_by_the_word():
    inputs = draw_inputs(SMALL.model_for(ModelKind.INDEPENDENT), 5,
                         SMALL.behavior, game_rng(7, 0, 0))
    rng = np.random.Generator(np.random.MT19937(7))
    untouched = copy.deepcopy(rng)
    with pytest.raises(ConfigurationError, match="PCG64"):
        play(inputs, SMALL.limits, frozenset(), SMALL.behavior, rng)
    assert rng.random(4).tolist() == untouched.random(4).tolist()


def test_play_refuses_inputs_whose_parts_disagree_in_size():
    """`play` takes the seat count from the strategies. Seven signals for a
    6-gift matrix, a strategies tuple one seat short, or no seat at all are
    refused by the part that does not fit, before any draw; the inputs
    `draw_inputs` makes still play."""
    good = draw_inputs(SMALL.model_for(ModelKind.INDEPENDENT), 6,
                       SMALL.behavior, game_rng(7, 0, 0))
    signals = np.append(good.appearance.signals, 0.5)
    empty = GameInputs(replace(good.valuations, values=np.zeros((0, 0))),
                       replace(good.appearance, signals=np.zeros(0)), ())
    cases = ((replace(good, appearance=replace(good.appearance,
                                               signals=signals)),
              "appearance.signals"),
             (replace(good, strategies=good.strategies[:-1]),
              "valuations.values"),
             (empty, "player count"))
    for features in (frozenset(), frozenset({Feature.BS}),
                     frozenset({Feature.PI, Feature.BS})):
        for inputs, part in cases:
            rng = game_rng(7, 0, 1)
            with pytest.raises(ConfigurationError, match=part):
                play(inputs, SMALL.limits, features, SMALL.behavior, rng)
            assert rng.bit_generator.state == (
                game_rng(7, 0, 1).bit_generator.state)
        game = play(good, SMALL.limits, features, SMALL.behavior,
                    game_rng(7, 0, 1))
        assert len(game.seat_values) == 6


@pytest.mark.parametrize("n", [7, 65])
def test_inputs_do_not_depend_on_the_features(n):
    """All 16 feature subsets of a model, played from one game key, play
    from the inputs `draw_inputs` makes on a fresh generator of that key,
    bit for bit."""
    cfg = ExperimentConfig(n_players=n)
    for mi, kind in enumerate(harness.MODEL_ORDER):
        model = cfg.model_for(kind)
        want = draw_inputs(model, n, cfg.behavior, game_rng(3, 16 * mi, n))
        for cond in enumerate_conditions(cfg)[16 * mi:16 * mi + 16]:
            got = play_game(n, cfg.limits, model, cond.features, cfg.behavior,
                            game_rng(3, 16 * mi, n)).inputs
            assert got.strategies == want.strategies
            for a, b in ((got.valuations, want.valuations),
                         (got.appearance, want.appearance)):
                for field in fields(a):
                    x, y = getattr(a, field.name), getattr(b, field.name)
                    if isinstance(x, np.ndarray):
                        assert x.dtype == y.dtype and x.shape == y.shape
                        assert x.tobytes() == y.tobytes()
                    else:
                        assert x == y


def test_history_holds_rows_exactly_for_the_thieves(monkeypatch):
    """After a FULL game, a seat has its own SC history row exactly when it
    stole, and the row's counts add up to its steals."""
    made = []

    class Recorded(SocialState):
        __slots__ = ()

        def __init__(self, n):
            super().__init__(n)
            made.append(self)

    monkeypatch.setattr(harness, "SocialState", Recorded)
    cfg = ExperimentConfig(n_players=60)
    for mi, kind in enumerate(ModelKind):
        game = play_game(60, cfg.limits, cfg.model_for(kind), ALL_FEATURES,
                         cfg.behavior, game_rng(3, 16 * mi + 15, 0))
        social = made[-1]
        rows = [s for s, row in enumerate(social.history)
                if type(row) is list]
        thieves = [s for s, c in enumerate(social.steals_committed) if c > 0]
        assert rows == thieves and len(rows) > 1
        assert [sum(social.history[s]) for s in rows] == [
            social.steals_committed[s] for s in rows]
        assert sum(social.steals_committed) == game.result.steal_count


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_refuses_an_empty_run(tmp_path, fmt):
    # run_experiment(config, conditions=[]) returns []; writing it used to
    # die with IndexError on the CSV header's first row.
    path = tmp_path / f"experiment.{fmt}"
    with pytest.raises(ValueError, match="no conditions to export"):
        export([], {}, fmt, path, config=SMALL)
    assert not path.exists()


def test_export_rejects_unknown_format(tmp_path):
    cfg, summaries = small_run()
    with pytest.raises(ValueError):
        export(summaries, None, "xml", tmp_path / "x.xml", config=cfg)


def test_parallel_jobs_produce_identical_results():
    cfg = ExperimentConfig(n_players=6, games_per_condition=3, base_seed=5)
    conds = enumerate_conditions(cfg)[:6]
    seq = run_experiment(cfg, jobs=1, conditions=conds)
    par = run_experiment(cfg, jobs=2, conditions=conds)
    assert seq == par


def test_pool_never_outnumbers_the_conditions(monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, items):
            return [fn(*item) for item in items]

    class Context:
        Pool = InProcessPool

    methods = []

    def get_context(method):
        methods.append(method)
        return Context()

    monkeypatch.setattr(harness, "get_context", get_context)
    cfg = ExperimentConfig(n_players=4, games_per_condition=1, base_seed=3)
    conds = enumerate_conditions(cfg)[:2]
    got = run_experiment(cfg, jobs=64, conditions=conds)
    assert sizes == [2]
    assert methods == ["fork"]
    assert got == run_experiment(cfg, jobs=1, conditions=conds)


def test_pool_leaves_no_worker_running():
    cfg = ExperimentConfig(n_players=4, games_per_condition=1, base_seed=3)
    run_experiment(cfg, jobs=2, conditions=enumerate_conditions(cfg)[:2])
    assert multiprocessing.active_children() == []


def test_pooled_run_needs_no_main_guard(tmp_path, child_env):
    """A script that calls the pool at top level, with no `__main__` guard,
    runs once: forked workers do not import the script again."""
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""\
        from giftex import ExperimentConfig, enumerate_conditions, run_experiment

        config = ExperimentConfig(n_players=4, games_per_condition=1, base_seed=3)
        summaries = run_experiment(config, jobs=2,
                                   conditions=enumerate_conditions(config)[:2])
        print("conditions", [s.index for s in summaries])
        """))
    # Its own session, so that a hung pool's workers can be killed with it.
    proc = subprocess.Popen([sys.executable, str(script)], env=child_env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a pooled run from an unguarded script did not finish")
    assert proc.returncode == 0, err
    assert out.splitlines() == ["conditions [0, 1]"]


@pytest.mark.parametrize("jobs", [0, -3, 2.0, True, "2"])
def test_run_experiment_rejects_bad_jobs(jobs):
    cfg = ExperimentConfig(n_players=4, games_per_condition=1)
    with pytest.raises(ConfigurationError, match="jobs"):
        run_experiment(cfg, jobs=jobs, conditions=enumerate_conditions(cfg)[:1])
