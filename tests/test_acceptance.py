"""Acceptance suite: one test (or test group) per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` for a pass/fail line per
criterion. The golden tables this suite was pinned against contradict
themselves in two places; the two ``*_inconsistent_reference_*`` tests keep the
rejected entries in their docstrings and failure messages and assert the
values the tables' own arithmetic supports:

* ``test_criterion_1_inconsistent_reference_values`` checks T(6) and T(7)
  against the counting identity, confirmed by the brute-force oracle (n = 6)
  and by the level-profile DP under a cap that never binds (n = 7);
* ``test_criterion_6_inconsistent_reference_magnitudes`` anchors BASE steals
  per game at the golden set the documented rule set follows
  (70.8/104.2/74.2, +-15%) and records the conflicting set.
"""

import os
import time
from dataclasses import replace
from math import factorial, prod
from multiprocessing import get_context

import pytest

from giftex.behavior import BehaviorParams
from giftex.beliefs import wrapped_gift_value
from giftex.counting import (UNLIMITED, brute_force_count, count_trajectories,
                             round_action_count)
from giftex.engine import StealLimits
from giftex.harness import (Condition, ExperimentConfig, compute_effects,
                            enumerate_conditions, export, game_rng, play_game,
                            run_condition, run_experiment)
from giftex.valuation import ModelKind
from reference import check_game

pytestmark = pytest.mark.filterwarnings("ignore")


def report(criterion, message):
    print(f"[criterion {criterion}] PASS — {message}")


# ---------------------------------------------------------------------------
# 1. exact combinatorics (golden values)
# ---------------------------------------------------------------------------

def test_criterion_1_exact_combinatorics():
    start = time.perf_counter()
    assert tuple(round_action_count(k) for k in range(1, 9)) == \
        (1, 2, 5, 16, 65, 326, 1957, 13700)
    assert [count_trajectories(n) for n in range(2, 6)] == \
        [4, 60, 3840, 1_248_000]
    # Routes beyond the closed form: T(6) by the brute-force oracle and the
    # non-binding-cap DP (test_counting.py checks the DP for n <= 10), T(7) by
    # the non-binding-cap DP (both in the test below); T(8) by the closed form
    # only. Engine enumeration (test_engine.py) reaches n <= 4.
    assert count_trajectories(6) == 2_441_088_000
    assert f"{count_trajectories(7):.3g}" == "3.34e+13"
    assert f"{count_trajectories(8):.3g}" == "3.67e+18"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"A(1..8) and T(2..8) exact in {elapsed * 1000:.1f} ms")


def test_criterion_1_inconsistent_reference_values():
    """Reference values for T(6) and T(7), checked against the counting identity.

    The golden table this suite was pinned against lists T(6) = 2,440,488,000
    and T(7) ~ 3.31e13. Neither entry can be a trajectory count:

    * each round's open picks one of the remaining wrapped gifts, so T(n) is a
      multiple of n!, but 2,440,488,000 % 720 == 480;
    * the table's own product column gives 720 * 3,390,400 = 2,441,088,000;
    * the table's own A(7) = 1957 gives T(7) = T(6) * 7 * 1957, which is
      3.34e13 for either value of T(6), never 3.31e13.

    The values below come from the identity T(n) = n! * prod A(k) and are
    confirmed by routes that do not use the closed form: the brute-force
    oracle for n = 6 and the level-profile DP for n = 7 under a lifetime cap of
    n - 1, which never binds. (``count_trajectories(n, UNLIMITED)`` returns
    the closed form itself, so it is no check.)
    """
    t6 = factorial(6) * 3_390_400
    assert count_trajectories(6) == t6, (
        "T(6) = 6! * 3,390,400 = 2,441,088,000; the golden table's "
        "2,440,488,000 is not divisible by 720")
    assert brute_force_count(6, StealLimits(1, 0)) == t6, (
        "enumeration oracle disagrees with T(6) = 2,441,088,000")
    t7 = 33_440_464_512_000
    assert t7 == t6 * 7 * round_action_count(7)
    assert count_trajectories(7) == t7, (
        "T(7) = T(6) * 7 * A(7) = 3.34e13; the golden table's 3.31e13 matches "
        "neither value of T(6)")
    assert count_trajectories(7, 6) == t7, (
        "level-profile DP with a non-binding cap disagrees with T(7)")
    for n in (6, 7):
        assert count_trajectories(n) % factorial(n) == 0, n
    report(1, "T(6) = 2,441,088,000 and T(7) = 33,440,464,512,000 confirmed "
              "by oracle and DP")


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    for n in (2, 3, 4, 5):
        assert brute_force_count(n, StealLimits(1, 0)) == count_trajectories(n)
    for n in range(1, 9):
        assert count_trajectories(n, UNLIMITED) == factorial(n) * \
            prod(round_action_count(k) for k in range(1, n + 1))
    for n in range(1, 5):
        for lifetime in (1, 2, 3):
            assert count_trajectories(n, lifetime) == \
                brute_force_count(n, StealLimits(1, lifetime))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"closed form == DP == enumeration in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 3. counting propositions
# ---------------------------------------------------------------------------

def test_criterion_3_per_round_invariance_and_lifetime_monotonicity():
    for n in range(1, 6):
        reference = brute_force_count(n, StealLimits(0, 0))
        for per_round in (1, 2):
            assert brute_force_count(n, StealLimits(per_round, 0)) == reference
    for n in range(1, 6):
        counts = [count_trajectories(n, L) for L in (1, 2, 3, 4)]
        counts.append(count_trajectories(n, UNLIMITED))
        assert all(a <= b for a, b in zip(counts, counts[1:]))
    report(3, "per-round cap inert; counts weakly increasing in lifetime cap")


# ---------------------------------------------------------------------------
# 4. engine invariants over randomized games
# ---------------------------------------------------------------------------

LIMIT_CHOICES = (StealLimits(1, 0), StealLimits(1, 3), StealLimits(0, 0),
                 StealLimits(2, 0), StealLimits(1, 1), StealLimits(2, 2))


CRITERION_4_GAMES = 100_000
# Games per pool task. Fixed, so that a game's index, and with it its
# condition, size, limits and generator, never depends on the core count.
CRITERION_4_CHUNK = 5_000


def criterion_4_games(start, stop):
    """Play and check games `start` to `stop` of criterion 4's sweep; each
    game's condition, size and limits follow from its index alone."""
    config = ExperimentConfig()
    conditions = enumerate_conditions(config)
    for i in range(start, stop):
        cond = conditions[i % 48]
        n = 2 + (i * 7919) % 11  # 2..12
        limits = LIMIT_CHOICES[(i // 48) % len(LIMIT_CHOICES)]
        model = config.model_for(cond.model_kind)
        game = play_game(n, limits, model, cond.features, config.behavior,
                         game_rng(1234, cond.index, i))
        check_game(game.result)
    return stop - start


def test_criterion_4_engine_invariants_bulk():
    start = time.perf_counter()
    total_games = CRITERION_4_GAMES
    chunks = [(lo, min(lo + CRITERION_4_CHUNK, total_games))
              for lo in range(0, total_games, CRITERION_4_CHUNK)]
    # Forked workers; a failed check raises in its worker, and `starmap`
    # raises it again here.
    with get_context("fork").Pool(min(os.cpu_count() or 1, 2)) as pool:
        played = sum(pool.starmap(criterion_4_games, chunks))
    assert played == total_games
    # a slice at full table size as well
    config = ExperimentConfig()
    conditions = enumerate_conditions(config)
    for i in range(96):
        cond = conditions[i % 48]
        model = config.model_for(cond.model_kind)
        game = play_game(29, config.limits, model, cond.features,
                         config.behavior, game_rng(4321, cond.index, i))
        check_game(game.result)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, f"{total_games + 96} games across 48 conditions in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5. belief math
# ---------------------------------------------------------------------------

def test_criterion_5_belief_math():
    # Prior N(0.5, 0.25), signal 0.8 with sd 0.3, risk aversion 0.5. With no
    # risk aversion the certainty equivalent is the posterior mean; with a
    # zero prior mean, a zero signal and risk aversion 2 it is minus the
    # posterior variance, which does not depend on the signal.
    params = BehaviorParams(mu0=0.5, sigma0_sq=0.25, sigma_a=0.3, rho_risk=0.5)
    mean = wrapped_gift_value(0.8, replace(params, rho_risk=0.0))
    variance = -wrapped_gift_value(0.0, replace(params, mu0=0.0, rho_risk=2.0))
    assert mean == pytest.approx(0.7205882352941176, abs=1e-9)
    assert variance == pytest.approx(0.0661764705882353, abs=1e-9)
    ce = wrapped_gift_value(0.8, params)
    assert ce == pytest.approx(0.7040441176470588, abs=1e-9)
    assert variance < min(params.sigma0_sq, 0.3 * 0.3)
    assert ce <= mean
    for risk in (0.0, 0.25, 1.0, 3.0):
        # posterior variances 0 (the signal variance underflows), 0.1 and 0.5
        for sigma0_sq, sigma_a in ((0.25, 1e-200), (0.2, 0.2 ** 0.5),
                                   (1.0, 1.0)):
            p = BehaviorParams(mu0=0.6, sigma0_sq=sigma0_sq, sigma_a=sigma_a,
                               rho_risk=risk)
            assert wrapped_gift_value(0.6, p) <= \
                wrapped_gift_value(0.6, replace(p, rho_risk=0.0))
    report(5, "posterior and certainty equivalent exact to 1e-9")


# ---------------------------------------------------------------------------
# 6. directional simulation reproduction (desk scale)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_run():
    config = ExperimentConfig()  # 29 players, 1000 games, seed 42
    start = time.perf_counter()
    # The output does not depend on jobs (criterion 8 and
    # test_parallel_jobs_produce_identical_results pin that).
    summaries = run_experiment(config, jobs=os.cpu_count() or 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, "full factorial must stay inside the 10 min budget"
    return {(s.model, s.features): s for s in summaries}, list(summaries)


@pytest.fixture(scope="module")
def desk_effects(desk_run):
    """The desk run's effects on steals per game, from one compute_effects."""
    effects = compute_effects(desk_run[1])
    return {block: {model: {name: e["steals_per_game"]
                            for name, e in by_model.items()}
                    for model, by_model in effects[block].items()}
            for block in ("main_effects", "interactions")}


def base_steals(runs, model):
    return runs[(model, "BASE")].steals_per_game


def test_criterion_6a_social_cost_dominates(desk_run, desk_effects):
    runs, _ = desk_run
    for model in ("independent", "correlated", "negative"):
        effect = desk_effects["main_effects"][model]["SC"]
        base = base_steals(runs, model)
        assert effect < 0
        assert abs(effect) > 0.15 * base, (model, effect, base)
    report("6a", "SC reduces steals by >15% of BASE in all models")


def test_criterion_6b_adaptive_dynamics_reduce_stealing(desk_effects):
    for model in ("independent", "correlated", "negative"):
        assert desk_effects["main_effects"][model]["AD"] < 0
    report("6b", "AD main effect negative in all models")


def test_criterion_6c_biased_selection_boosts_correlated(desk_effects):
    bs_correlated = desk_effects["main_effects"]["correlated"]["BS"]
    bs_independent = desk_effects["main_effects"]["independent"]["BS"]
    assert bs_correlated > 0
    assert bs_correlated > bs_independent
    report("6c", f"BS effect correlated {bs_correlated:+.2f} vs "
                 f"independent {bs_independent:+.2f}")


def test_criterion_6d_value_consensus_intensifies_competition(desk_run):
    runs, _ = desk_run
    ind, cor = base_steals(runs, "independent"), base_steals(runs, "correlated")
    assert cor > 1.25 * ind, (ind, cor)
    report("6d", f"BASE steals correlated/independent = {cor / ind:.2f}")


def test_criterion_6e_seat_position_effects(desk_run):
    runs, summaries = desk_run
    for s in summaries:
        assert s.seat_means[0] == max(s.seat_means), \
            f"seat 1 not maximal in {s.model}/{s.features}"
    base_cor = runs[("correlated", "BASE")]
    assert base_cor.seat_means[1] < base_cor.seat_means[28]
    report("6e", "seat 1 maximal in all 48 conditions; seat 2 < seat 29")


def test_criterion_6f_strategy_ordering(desk_run):
    runs, _ = desk_run
    means = runs[("correlated", "BASE")].strategy_means
    coin = means["coin_flip"]
    for name in ("always_steal", "mean_based", "threshold", "expected_value"):
        assert means[name] > coin, (name, means[name], coin)
    assert coin > means["always_open"]
    report("6f", "aggressive > coin_flip > always_open in BASE/correlated")


def test_criterion_6g_social_cost_adaptive_subadditivity(desk_effects):
    got = desk_effects["interactions"]["correlated"]["SCxAD"]
    assert got > 0
    report("6g", f"SCxAD interaction on steals {got:+.2f} (subadditive)")


def test_criterion_6_inconsistent_reference_magnitudes(desk_run):
    """BASE steal magnitudes anchored to the golden set the rule set follows.

    The golden tables carry two conflicting sets of BASE steals-per-game
    means for the identical configuration: 70.8/104.2/74.2
    (independent/correlated/negative) and 57.017/87.572/61.371, an internal
    disagreement of 19-25%, so no +-15% anchor can hold for both. The paper's
    abstract gives no BASE magnitude to settle it. The documented decision
    rules land within ~4% of the first set (seed 42, 1000 games), and no
    variant tried reaches the second (lifetime caps 2-4 and n = 25-27 all
    miss it), so the anchors below are the first set at +-15% and the second
    set is kept only as the recorded conflict.
    """
    runs, _ = desk_run
    anchors = {"independent": 70.8, "correlated": 104.2, "negative": 74.2}
    conflicting = {"independent": 57.017, "correlated": 87.572,
                   "negative": 61.371}
    for model, anchor in anchors.items():
        got = base_steals(runs, model)
        assert abs(got - anchor) <= 0.15 * anchor, (
            f"{model} BASE steals {got:.2f} vs anchor {anchor} "
            f"(the conflicting golden set lists {conflicting[model]})")
    report("6", "BASE steals within 15% of 70.8/104.2/74.2")


# ---------------------------------------------------------------------------
# 7. lifetime-cap monotonicity in simulation
# ---------------------------------------------------------------------------

def test_criterion_7_mean_steals_monotone_in_lifetime_cap():
    base_condition = Condition(0, ModelKind.INDEPENDENT, frozenset())
    means = {}
    for lifetime in (1, 3, 0):
        config = ExperimentConfig(limits=StealLimits(1, lifetime))
        summary = run_condition(base_condition, config)
        means[lifetime] = summary.steals_per_game
    assert means[1] <= means[3] <= means[0], means
    report(7, f"steals/game {means[1]:.2f} <= {means[3]:.2f} <= {means[0]:.2f} "
              "for lifetime 1 / 3 / unlimited (common seeds)")


# ---------------------------------------------------------------------------
# 8. determinism of the full experiment
# ---------------------------------------------------------------------------

def test_criterion_8_byte_identical_exports(tmp_path):
    config = ExperimentConfig(n_players=8, games_per_condition=4, base_seed=11)
    paths = []
    for tag, jobs in (("a", 1), ("b", 1), ("c", 2)):
        summaries = run_experiment(config, jobs=jobs)
        effects = compute_effects(summaries)
        path = tmp_path / f"{tag}.csv"
        export(summaries, effects, "csv", path, config=config)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    report(8, "two sequential runs and a 2-worker run export identical bytes")
