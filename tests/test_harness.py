"""Experiment harness: conditions, per-game seeding, aggregation, export."""

import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from giftex import harness, strategies
from giftex.behavior import BehaviorParams, Feature
from giftex.engine import StealLimits
from giftex.errors import ConfigurationError
from giftex.harness import (Condition, ConditionSummary, ExperimentConfig,
                            compute_effects, enumerate_conditions, export,
                            game_rng, game_trace, load_config, play_game,
                            run_condition, run_experiment)
from giftex.strategies import STRATEGY_ORDER, Strategy
from giftex.valuation import ModelKind

SMALL = ExperimentConfig(n_players=8, games_per_condition=20, base_seed=7)


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
    assert a.result == b.result and a.strategies == b.strategies


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
            game.valuations.values[seat - 1, gift - 1])


def test_base_and_pi_only_identical_for_always_steal_population():
    # With every seat pinned to always_steal, no decision consults beliefs,
    # so partial information changes nothing game-by-game.
    cfg = SMALL
    model = cfg.model_for(ModelKind.CORRELATED)
    for idx in range(10):
        base = play_game(8, cfg.limits, model, frozenset(), cfg.behavior,
                         game_rng(7, 5, idx), fixed_strategy=Strategy.ALWAYS_STEAL)
        pi = play_game(8, cfg.limits, model, frozenset({Feature.PI}),
                       cfg.behavior, game_rng(7, 5, idx),
                       fixed_strategy=Strategy.ALWAYS_STEAL)
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
    game = play_game(6, StealLimits(), model, frozenset({Feature.BS}), params,
                     game_rng(2, 0, 0), fixed_strategy=Strategy.ALWAYS_OPEN)
    signals = game.appearance.signals
    assert np.diff(np.sort(signals)).min() > 0.05
    opened = [rec.gift for rec in game.result.trajectory[:-1]]
    assert opened == [int(g) + 1 for g in np.argsort(-signals)]


def test_game_trace_is_json_serializable():
    cfg = SMALL
    model = cfg.model_for(ModelKind.NEGATIVE)
    game = play_game(8, cfg.limits, model, frozenset({Feature.BS}),
                     cfg.behavior, game_rng(7, 9, 0))
    doc = json.loads(json.dumps(game_trace(game)))
    assert doc["players"] == 8
    assert len(doc["trajectory"]) == len(game.result.trajectory)
    assert doc["steal_count"] == game.result.steal_count
    assert len(doc["valuations"]["values"]) == 8


# -- condition aggregation -----------------------------------------------------------

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
    """`apply_open` and `apply_steal` refuse an actor holding a gift, so the
    `own_value` a decision reads is 0.0 in every game played, and the AD
    gate's satisfaction term never moves it."""
    satisfactions, holdings = [], []
    gate = harness.adaptive_prob_linear
    scan = strategies.best_target

    def recording_gate(p0, phase, frustration, satisfaction, *coefficients):
        satisfactions.append(satisfaction)
        return gate(p0, phase, frustration, satisfaction, *coefficients)

    def recording_scan(state, actor, values, order, own_value, *rest):
        holdings.append((state.ownership[actor], own_value))
        return scan(state, actor, values, order, own_value, *rest)

    monkeypatch.setattr(harness, "adaptive_prob_linear", recording_gate)
    monkeypatch.setattr(strategies, "best_target", recording_scan)
    for n in (2, 3, 7):
        run_experiment(ExperimentConfig(n_players=n, games_per_condition=4,
                                        base_seed=n))
    assert satisfactions and holdings
    assert set(satisfactions) == {0.0}
    assert set(holdings) == {(None, 0.0)}


def column_add_sums(values, opened):
    """The per-seat sums `play_game` once kept by adding the opened gift's
    value column to every seat on every open: the reference the lazily
    caught-up sums must match bit for bit."""
    opened_sum = np.zeros(values.shape[0] + 1)
    for g in opened:
        opened_sum[1:] += values.T[g - 1]
    return opened_sum


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
    sums = harness._SeenSums(rows)
    opened = []
    for g in rng.permutation(n) + 1:
        opened.append(int(g))
        want = column_add_sums(values, opened)
        for seat in rng.choice(n, size=int(rng.integers(0, 4)), replace=False):
            seat = int(seat) + 1
            assert sums.seen(seat, opened).hex() == float(want[seat]).hex()
            assert sums.unseen(seat, opened).hex() == (
                sum(rows[seat]) - float(want[seat])).hex()
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
        openers = {seat for seat, s in enumerate(game.strategies, 1)
                   if s is Strategy.ALWAYS_OPEN}
        assert openers and scanned
        assert openers.isdisjoint(scanned)
        scanned.clear()
        play_game(8, SMALL.limits, model, features, SMALL.behavior,
                  game_rng(7, 1, idx), fixed_strategy=Strategy.ALWAYS_OPEN)
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
        f"{r.actor},{type(r.action).__name__},{r.round},"
        f"{r.position_in_chain},{r.gift},"
        f"{getattr(r.action, 'victim', getattr(r.action, 'partner', ''))}"
        for r in game.result.trajectory)
    strats = ",".join(s.value for s in game.strategies)
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
