"""Strategy decision rules: the target scan, boundaries, legality."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giftex import harness, strategies
from giftex.behavior import (BehaviorParams, Feature, SocialState,
                             selection_weights)
from giftex.engine import GameState, Open, StealLimits
from giftex.harness import (ExperimentConfig, GameInputs,
                            enumerate_conditions, run_condition)
from giftex.strategies import (C_DRAW_ABOVE, STRATEGY_ORDER,
                               TOP_TABLE_ABOVE, Strategy, best_target,
                               choose_open_gift, decide, top_table)
from giftex.valuation import (AppearanceVector, ModelKind, ValuationMatrix,
                              ValuationModel, generate_valuations)
from reference import by_value


def run(kind, best=None, bar=0.6, rng=None):
    """`decide` with the defaults these tests share: the victim or None."""
    return decide(kind, best, bar, RNG if rng is None else rng)


RNG = np.random.default_rng(0)
PARAMS = BehaviorParams()


def test_strategy_names_are_the_cli_identifiers():
    assert [s.value for s in STRATEGY_ORDER] == [
        "always_open", "always_steal", "coin_flip",
        "mean_based", "threshold", "expected_value"]


# -- best_target ----------------------------------------------------------------

def test_best_target_none_without_owners():
    values = [0.0] * 4
    assert best_target(GameState(3), 1, values, by_value(values), None,
                       PARAMS) is None


def test_best_target_takes_argmax():
    state = GameState(5)
    for seat in range(1, 5):
        state.apply_open(seat, seat)
    values = [0.0, 0.1, 0.9, 0.0, 0.6, 0.0]  # indexed by gift
    assert best_target(state, 5, values, by_value(values), None,
                       PARAMS) == (2, 0.9, 0.9)


def test_best_target_tie_breaks_to_lowest_seat():
    # Seat 5 steals gift 3 from seat 3, who opens gift 5: seat 5's gift comes
    # first in opening order, and the equal net still goes to seat 3.
    state = GameState(6)
    for seat in range(1, 5):
        state.apply_open(seat, seat)
    state.apply_steal(5, 3)
    state.apply_open(3, 5)
    values = [0.0, 0.1, 0.2, 0.7, 0.3, 0.7, 0.0]
    assert best_target(state, 6, values, by_value(values), None,
                       PARAMS) == (3, 0.7, 0.7)


def test_best_target_walks_on_through_a_tie_at_the_bound():
    # Seat 5 holds gift 3 and seat 3 gift 5, both worth 0.7. Walking gift 3
    # first finds seat 5; gift 5's bound equals that net, so the walk goes on
    # and the lower seat 3 still wins, in either order of the tie.
    state = GameState(6)
    for seat in range(1, 5):
        state.apply_open(seat, seat)
    state.apply_steal(5, 3)
    state.apply_open(3, 5)
    values = [0.0, 0.1, 0.2, 0.7, 0.3, 0.7, 0.0]
    for order in ([3, 5, 4, 2, 1, 6], [5, 3, 4, 2, 1, 6]):
        assert best_target(state, 6, values, order, None,
                           PARAMS) == (3, 0.7, 0.7)


def test_best_target_answers_none_to_a_seat_holding_a_top_gift():
    # Seat 2 holds gift 2 and seat 3 gift 3, both at seat 2's top value 1.0;
    # then seat 2 alone holds its top gift. Only the seat to act moves, and
    # it holds nothing, so seat 2 gets no target, with or without its table.
    state = GameState(4)
    for seat in range(1, 4):
        state.apply_open(seat, seat)
    for values in ([0.0, 0.5, 1.0, 1.0, 0.0], [0.0, 0.5, 1.0, 0.7, 0.0]):
        order = by_value(values)
        for table in (b"", tie_table(values)):
            assert best_target(state, 2, values, order, None, PARAMS,
                               table) is None


def tie_table(values):
    """The `top` table from its definition: a 1 at each gift id whose value
    equals the row maximum, a lone top gift included."""
    top = max(values[1:])
    return bytes(0 < g < len(values) and values[g] == top for g in range(256))


def full_scan(state, actor, values, social, params):
    """The reference scan: None for an actor holding a gift, which is never
    the seat to act; else every opened gift, in opening order, no
    early exit, legality recomputed from `chain_locked` and `total_steals`
    rather than read from the `takeable` flags. `best_target` must return
    exactly what this returns."""
    if state.ownership[actor] is not None:
        return None
    holder, locked = state.holder, state.chain_locked
    lifetime, total = state.limits.lifetime, state.total_steals
    if social is not None:
        base_cost = params.c0 + params.beta * social.steals_committed[actor]
        repeat_cost = params.c0 * params.alpha
        h_row = social.history[actor]
    best_victim, best_net, best_value = 0, 0.0, 0.0  # seat 0: none yet
    for g in state.opened_order:
        if g in locked or (lifetime and total[g] >= lifetime):
            continue
        victim = holder[g]
        value = values[g]
        net = value
        if social is not None:
            net -= base_cost + repeat_cost * h_row[victim]
        if (not best_victim or net > best_net
                or (net == best_net and victim < best_victim)):
            best_victim, best_net, best_value = victim, net, value
    return (best_victim, best_net, best_value) if best_victim else None


def shuffled_order(values, rng):
    """Gift ids by descending value, each group of equal values shuffled."""
    keys = rng.random(len(values))
    return sorted(range(1, len(values)), key=lambda g: (-values[g], keys[g]))


ID_TYPES = (None, np.uint8, np.uint16)


def id_rows(order, dtype):
    """`order` as `play` passes it: a view of an unsigned id array
    (`dtype` None keeps the list)."""
    return order if dtype is None else memoryview(np.array(order, dtype))


def list_rows(values):
    """V[seat][gift] as lists of floats, row and column 0 unused."""
    return [None] + [[0.0] + row for row in values.tolist()]


def view_rows(values):
    """V[seat][gift] as play reads it: the `rows` a `GameInputs` of these
    values builds."""
    n = len(values)
    vm = ValuationMatrix(values, values.mean(axis=0),
                         ValuationModel(ModelKind.INDEPENDENT))
    return GameInputs(vm, AppearanceVector(np.zeros(n), 0.3),
                      (Strategy.ALWAYS_STEAL,) * n).rows


@pytest.mark.parametrize("rows", [list_rows, view_rows])
@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("kind", list(ModelKind))
def test_sorted_walk_matches_full_scan(kind, quantized, rows):
    """Property: over random reachable states, `best_target` equals the full
    scan exactly, SC off and on, under lifetime caps 0, 1 and 2, reading
    the rows as lists and as the float64 views play passes, the orders as
    lists and as uint8 and uint16 id views, with and without the actor's
    top table. The correlated and negative models clip to exact 0.0 and
    1.0 and the quantized rows take five values, so ties are common. Every
    seat is scanned: one holding a gift gets None."""
    rng = np.random.default_rng([13, len(kind.value), quantized])
    ties = holding = 0
    for trial in range(24):
        n = int(rng.integers(2, 12))
        values = generate_valuations(ValuationModel(kind), n, rng).values
        if quantized:
            values = np.round(values * 4) / 4
        V = rows(values)
        state = GameState(n, StealLimits(1, trial % 3))
        params = BehaviorParams(c0=float(rng.choice([0.0, 0.05, 0.25])),
                                alpha=float(rng.choice([0.0, 2.0])),
                                beta=float(rng.choice([0.0, 0.1])))
        social = SocialState(n)
        for thief in range(1, n + 1):
            committed = int(rng.integers(0, 4))
            for victim in range(1, n + 1):
                for _ in range(int(rng.integers(0, 3))):
                    social.note_steal(thief, victim)
            social.steals_committed[thief] = committed
        while state.to_act is not None:
            for actor in range(1, n + 1):
                row = V[actor]
                listed = shuffled_order(row, rng)
                ties += len(set(row[1:])) < n
                table = tie_table(row)
                holding += state.ownership[actor] is not None
                for sc in (None, social):
                    want = full_scan(state, actor, row, sc, params)
                    for ids in ID_TYPES:
                        order = id_rows(listed, ids)
                        assert top_table(row, order) == (
                            table if sum(table) > 1 else b"")
                        assert best_target(state, actor, row, order, sc,
                                           params) == want
                        assert best_target(state, actor, row, order, sc,
                                           params, table) == want
            actor = state.to_act
            actions = state.legal_actions(actor)
            action = actions[int(rng.integers(0, len(actions)))]
            if isinstance(action, Open):
                state.apply_open(actor, action.gift)
            else:
                state.apply_steal(actor, action.victim)
    assert holding  # seats holding a gift were scanned
    if quantized or kind is not ModelKind.INDEPENDENT:
        assert ties  # the tie-break was exercised


@pytest.mark.parametrize("ids", ID_TYPES)
def test_a_scan_past_an_untakeable_top_tie_matches_full_scan(ids):
    """Seat 4, displaced and empty-handed, values gifts 1, 4 and 6 at its
    top, 1.0: gift 1 is at its lifetime cap, gift 4 chain-locked and gift 6
    wrapped. No seat offers a top gift, so the table's lookup finds none
    and the walk starts below the tie, where gift 3 (seat 3, 0.9) wins over
    gift 2 (seat 1, 0.8): starting one id later would answer seat 1."""
    state = GameState(8, StealLimits(1, 1))
    state.apply_open(1, 1)
    state.apply_steal(2, 1)  # gift 1 to seat 2, at the cap of 1
    state.apply_open(1, 2)
    state.apply_open(3, 3)
    state.apply_open(4, 4)
    state.apply_steal(5, 4)  # gift 4 to seat 5, locked; seat 4 displaced
    values = [0.0, 1.0, 0.8, 0.9, 1.0, 0.1, 1.0, 0.2, 0.3]
    table = tie_table(values)
    assert state.offer.translate(table).find(1, 1) == -1
    want = full_scan(state, 4, values, None, PARAMS)
    assert want == (3, 0.9, 0.9)
    for tie in ([1, 4, 6], [6, 4, 1], [4, 1, 6]):
        order = id_rows(tie + [3, 2, 8, 7, 5], ids)
        assert top_table(values, order) == table
        assert best_target(state, 4, values, order, None, PARAMS,
                           table) == want


def test_played_games_scan_as_the_full_scan(monkeypatch):
    """Every `best_target` call that play makes equals the full scan on the
    same arguments: all 48 conditions at n = 7 and 29, and the 24 SC-off
    conditions at n = 100, where play passes each seat's `top_table`,
    under lifetime caps 0, 1 and 2. Play reaches the clipped 1.0 tie runs
    and long chains far more often than random legal actions do."""
    scan = strategies.best_target
    seen = {"sc_on": 0, "ties": 0, "table": 0}

    def checked_scan(state, actor, values, order, social, params, top=b""):
        # Play passes each seat's own table, where it passes one at all.
        assert top == (top_table(values, order) if social is None
                       and len(order) > TOP_TABLE_ABOVE else b"")
        got = scan(state, actor, values, order, social, params, top)
        assert got == full_scan(state, actor, values, social, params)
        if social is not None:
            seen["sc_on"] += 1
        elif got is not None:  # SC off: count scans the tie-break decided
            seen["ties"] += sum(
                state.takeable[g] and values[g] == got[2]
                for g in state.opened_order) > 1
            # ... and those a takeable gift in the top table answered
            seen["table"] += bool(top) and any(
                top[g] and state.takeable[g] for g in state.opened_order)
        return got

    monkeypatch.setattr(strategies, "best_target", checked_scan)
    for n in (7, 29, 100):
        for cap in (0, 1, 2):
            config = ExperimentConfig(n_players=n, games_per_condition=2,
                                      base_seed=100 + n + cap,
                                      limits=StealLimits(1, cap))
            for condition in enumerate_conditions(config):
                if n < 100 or Feature.SC not in condition.features:
                    run_condition(condition, config)
    assert seen["sc_on"] and seen["ties"] > 100 and seen["table"] > 100


# -- decision rules ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ["always_steal", None, 3])
def test_decide_refuses_a_kind_that_is_not_a_strategy(kind):
    # Even the value of a member is not the member.
    with pytest.raises(ValueError, match="unknown strategy"):
        run(kind, best=(2, 0.9, 0.9))


def test_always_open_opens():
    assert run(Strategy.ALWAYS_OPEN, best=(2, 0.9, 0.9)) is None


def test_always_steal_without_targets_opens():
    assert run(Strategy.ALWAYS_STEAL) is None


def test_always_steal_takes_best():
    assert run(Strategy.ALWAYS_STEAL, best=(3, 0.4, 0.4)) == 3


def test_coin_flip_splits_roughly_in_half():
    rng = np.random.default_rng(123)
    outcomes = [run(Strategy.COIN_FLIP, best=(2, 0.9, 0.9), rng=rng) == 2
                for _ in range(2000)]
    assert 0.45 < np.mean(outcomes) < 0.55


def test_mean_based_compares_gift_value_to_opened_mean():
    assert run(Strategy.MEAN_BASED, best=(2, 0.3, 0.8), bar=0.7) == 2
    assert run(Strategy.MEAN_BASED, best=(2, 0.3, 0.6), bar=0.7) is None
    assert run(Strategy.MEAN_BASED, best=(2, 0.3, 0.7),
               bar=0.7) is None  # tie


def test_threshold_boundary_is_strict():
    assert run(Strategy.THRESHOLD, best=(2, 0.59, 0.59)) is None
    assert run(Strategy.THRESHOLD, best=(2, 0.61, 0.61)) == 2
    assert run(Strategy.THRESHOLD, best=(2, 0.60, 0.60)) is None


def test_threshold_compares_the_net_not_the_value():
    # Under SC a winner's net is its value less the social cost: a net
    # below the bar opens even when the value is above it, and the reverse.
    assert run(Strategy.THRESHOLD, best=(2, 0.55, 0.8)) is None
    assert run(Strategy.THRESHOLD, best=(2, 0.65, 0.5)) == 2
    assert run(Strategy.MEAN_BASED, best=(2, 0.55, 0.8)) == 2
    assert run(Strategy.MEAN_BASED, best=(2, 0.65, 0.5)) is None


@pytest.mark.parametrize("kind", [Strategy.ALWAYS_STEAL, Strategy.COIN_FLIP])
def test_always_steal_and_coin_flip_ignore_the_bar(kind):
    # COIN_FLIP draws from equal generator states for every bar.
    for best in ((2, 0.3, 0.8), (3, 0.9, 0.1), (4, -0.2, 0.0)):
        seen = set()
        for seed in range(20):
            answers = {run(kind, best, bar, np.random.default_rng(seed))
                       for bar in (-1e9, -0.5, 0.0, 0.3, 0.6, 0.8, 1.0, 1e9)}
            assert len(answers) == 1
            seen |= answers
        assert seen == ({best[0]} if kind is Strategy.ALWAYS_STEAL
                        else {best[0], None})


def test_expected_value_compares_net_to_opening_net():
    # wrapped-pool mean 0.5, empty-handed, best steal net 0.7: steal
    assert run(Strategy.EXPECTED_VALUE, best=(2, 0.7, 0.7), bar=0.5) == 2
    # best net below the opening net: open
    assert run(Strategy.EXPECTED_VALUE, best=(2, 0.3, 0.3), bar=0.5) is None
    # an equal net opens: the comparison is strict
    assert run(Strategy.EXPECTED_VALUE, best=(2, 0.5, 0.7), bar=0.5) is None


# -- gift choice --------------------------------------------------------------------

def test_uniform_choice_covers_the_pool():
    rng = np.random.default_rng(7)
    seen = {choose_open_gift([4, 5, 6], None, rng) for _ in range(200)}
    assert seen == {4, 5, 6}


def test_weighted_choice_prefers_heavy_gifts():
    rng = np.random.default_rng(8)
    weights = [0.0] * 10
    weights[4], weights[5] = 1.0, 99.0
    picks = [choose_open_gift([4, 5], weights, rng) for _ in range(1000)]
    assert picks.count(5) > 930


def test_weighted_choice_matches_softmax_probabilities():
    tau = 2.0
    weights = [0.0] * 4 + selection_weights([0.2, 0.8], tau)  # gifts 4, 5
    rng = np.random.default_rng(9)
    picks = np.array([choose_open_gift([4, 5], weights, rng)
                      for _ in range(20000)])
    # exp(0.4) / (exp(0.4) + exp(1.6)), written out
    assert np.mean(picks == 4) == pytest.approx(0.23147521650098235, abs=0.02)


def test_extreme_weight_is_effectively_deterministic():
    rng = np.random.default_rng(10)
    weights = [0.0] * 10
    weights[7], weights[8] = 1e-12, 1e12
    assert all(choose_open_gift([7, 8], weights, rng) == 8 for _ in range(100))


def test_weighted_choice_falls_back_to_the_last_gift():
    """r = u * total can round up to the total itself; then no running sum
    exceeds r, and the draw falls back to the pool's last gift."""
    rng = np.random.default_rng(12)
    assert {choose_open_gift([3, 4, 5], [0.0] * 6, rng)
            for _ in range(20)} == {5}
    # A one-unit subnormal total times any draw above 1/2 rounds back up to
    # the total, so the zero-weight gift 9 is drawn about half the time.
    weights = [0.0] * 8 + [5e-324, 0.0]
    assert {choose_open_gift([7, 8, 9], weights, rng)
            for _ in range(100)} == {8, 9}


def reference_draw(pool, weights, rng):
    """The reference weighted open: the total, then the running sum, in two
    Python loops over `pool`. `choose_open_gift` must return the same gift
    from the same single draw."""
    total = 0.0
    for gift in pool:
        total += weights[gift]
    r = rng.random() * total
    acc = 0.0
    for gift in pool:
        acc += weights[gift]
        if r < acc:
            return gift
    return pool[-1]


def row_of(pool, weights):
    """The float64 weight store play keeps above `C_DRAW_ABOVE` players:
    `weights` on `pool`, 0.0 at every other id, id 0 and opened gifts
    included."""
    row = np.zeros(len(weights))
    row[pool] = [weights[g] for g in pool]
    return row


def assert_draws_match(pool, weights, seed, draws=50):
    """Each of `draws` opens from `pool` with the float64 store equals the
    reference draw on the list `weights` and leaves the generator in the
    same state; returns the gifts drawn."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    row = row_of(pool, weights)
    gifts = []
    for _ in range(draws):
        gift = choose_open_gift(pool, row, rng)
        assert gift == reference_draw(pool, weights, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        gifts.append(gift)
    return gifts


# The store draws in C at any pool size, the smallest included.
POOL_SIZES = (1, 2, 63, 64, 65, 200)


@pytest.mark.parametrize("size", POOL_SIZES)
def test_draw_matches_the_reference_with_opened_ids_zeroed(size):
    """A pool scattered over 3x its size of ids; the weight list keeps a
    weight at every opened id, as play's list does, and the row reads 0.0
    there."""
    rng = np.random.default_rng(size)
    n = 3 * size
    pool = sorted(rng.choice(np.arange(1, n + 1), size, replace=False).tolist())
    weights = [0.0] + rng.random(n).tolist()
    gifts = assert_draws_match(pool, weights, seed=size, draws=200)
    assert set(gifts) <= set(pool) and len(set(gifts)) > min(10, size - 1)


@pytest.mark.parametrize("size", POOL_SIZES)
def test_draw_matches_the_reference_on_zero_and_subnormal_weights(size):
    rng = np.random.default_rng(size + 1)
    n = 2 * size
    pool = sorted(rng.choice(np.arange(1, n + 1), size, replace=False).tolist())
    tiny = (0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1.0)
    weights = [0.0] + [tiny[k] for k in rng.integers(0, len(tiny), n)]
    assert_draws_match(pool, weights, seed=size, draws=200)
    # Weights of one or two units of the smallest subnormal: r and every
    # running sum are whole units, so most draws land exactly on a running
    # sum, where only a strict `r < acc` moves on to the next gift.
    weights = [0.0] + [(0.0, 5e-324, 1e-323)[k] for k in rng.integers(0, 3, n)]
    assert_draws_match(pool, weights, seed=size + 1, draws=200)


@pytest.mark.parametrize("size", POOL_SIZES)
def test_draw_falls_back_to_the_last_gift_as_the_reference(size):
    """r == total: no running sum exceeds r, and both draws return the
    pool's last gift, here one of weight 0.0."""
    pool = list(range(2, 2 + size))
    weights = [0.0] * (size + 3)
    assert set(assert_draws_match(pool, weights, seed=size)) == {pool[-1]}
    # A one-unit subnormal total: any u above 1/2 rounds r up to the total.
    weights[pool[size // 2]] = 5e-324
    gifts = assert_draws_match(pool, weights, seed=size, draws=100)
    assert set(gifts) == {pool[size // 2], pool[-1]}


@pytest.mark.parametrize("tau", [2.0, 40.0])
def test_played_opens_draw_as_the_reference(monkeypatch, tau):
    """Every open play makes equals the reference draw on a copy of the
    generator, and play passes its weights as a list at n <= `C_DRAW_ABOVE`
    and above it as a float64 array that reads 0.0 off the pool: every BS
    condition of the three models at n on both sides of `C_DRAW_ABOVE` and
    at 200. tau 40 drains the pool's weight below the reweight threshold,
    so the store's update is checked."""
    draw, reweigh = harness.choose_open_gift, harness.selection_weights
    seen = {"c_draws": 0, "weightings": 0}

    def position(draws):
        """How far play's draws object has read: its generator's state (it
        moves a block at a time), the block's unread words and the
        buffered half."""
        assert type(draws) is harness._Draws
        return (draws.source.state, len(draws.words), draws.has_half,
                draws.half)

    def counted_weights(values, tau):
        seen["weightings"] += 1
        return reweigh(values, tau)

    def checked_draw(pool, weights, rng):
        expected = None
        if weights is not None:
            if len(weights) - 1 > C_DRAW_ABOVE:  # n players, and id 0
                assert type(weights) is np.ndarray
                assert weights.dtype == np.float64
                assert np.array_equal(weights, row_of(pool, weights))
                seen["c_draws"] += 1
            else:
                assert type(weights) is list
            # The store is reweighted before the pool's weight can drop
            # below the threshold (the running total play keeps errs by far
            # less than half of it).
            assert math.fsum(weights[g] for g in pool) > (
                harness._REWEIGHT_BELOW / 2)
            ref_rng = copy.deepcopy(rng)
            expected = reference_draw(pool, weights, ref_rng)
        gift = draw(pool, weights, rng)
        if expected is not None:
            assert gift == expected
            assert position(rng) == position(ref_rng)
        return gift

    monkeypatch.setattr(harness, "choose_open_gift", checked_draw)
    monkeypatch.setattr(harness, "selection_weights", counted_weights)
    games = 0
    for n, per_condition in ((C_DRAW_ABOVE - 1, 1), (C_DRAW_ABOVE + 1, 1),
                             (200, 1)):
        config = ExperimentConfig(
            n_players=n, games_per_condition=per_condition, base_seed=n,
            behavior=dataclasses.replace(PARAMS, tau=tau))
        for condition in enumerate_conditions(config):
            if Feature.BS in condition.features:
                run_condition(condition, config)
                games += per_condition
    assert seen["c_draws"] > 1000
    if tau == 40.0:  # the reweight path ran, more than once a game
        assert seen["weightings"] > 2 * games


# -- legality fuzz --------------------------------------------------------------------

@given(seed=st.integers(0, 5000))
@settings(max_examples=200, deadline=None)
def test_decide_never_returns_an_illegal_action(seed):
    """Property: the victim is always the winning target's seat, and an open
    always draws from the pool."""
    rng = np.random.default_rng(seed)
    best = None
    if rng.random() < 0.8:
        best = (int(rng.integers(2, 22)), float(rng.random()),
                float(rng.random()))
    pool = [int(g) + 30 for g in rng.choice(10, size=int(rng.integers(1, 6)),
                                            replace=False)]
    kind = STRATEGY_ORDER[int(rng.integers(0, 6))]
    # Both means are drawn whatever the rule, so each example's draws stay
    # as they were; the bar is the one the rule reads, as play sets it.
    opened_mean, wrapped_mean = float(rng.random()), float(rng.random())
    bar = {Strategy.MEAN_BASED: opened_mean,
           Strategy.EXPECTED_VALUE: wrapped_mean}.get(kind, 0.6)
    victim = run(kind, best=best, bar=bar, rng=rng)
    if victim is None:
        assert choose_open_gift(pool, None, rng) in pool
    else:
        assert best is not None and victim == best[0]
        if kind is Strategy.ALWAYS_OPEN:
            pytest.fail("always_open must never steal")


def test_choose_open_gift_asserts_on_empty_pool():
    with pytest.raises(AssertionError):
        choose_open_gift([], None, RNG)
