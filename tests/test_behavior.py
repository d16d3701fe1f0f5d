"""Social costs, frustration dynamics, adaptive probabilities, selection."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giftex.behavior import (BehaviorParams, Feature, SocialState,
                             adaptive_prob_linear, feature_label, feature_set,
                             frustration_decay, frustration_on_theft,
                             running_total, selection_weights)
from giftex.engine import GameState
from giftex.errors import ConfigurationError
from giftex.strategies import best_target
from reference import by_value, lone_targets

PARAMS = BehaviorParams()


# -- feature plumbing ---------------------------------------------------------

def test_feature_parsing_and_labels():
    assert feature_set("pi", "SC") == frozenset({Feature.PI, Feature.SC})
    assert feature_label(frozenset()) == "BASE"
    assert feature_label(frozenset(Feature)) == "FULL"
    assert feature_label(frozenset({Feature.BS, Feature.PI})) == "PI+BS"
    with pytest.raises(ConfigurationError):
        feature_set("nope")


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        BehaviorParams(c0=-0.1)
    with pytest.raises(ConfigurationError):
        BehaviorParams(sigma0_sq=0.0)


@pytest.mark.parametrize("name", [f.name for f in fields(BehaviorParams)])
@pytest.mark.parametrize("bad", [True, False, "1", None, [1.0], 10**400])
def test_non_number_parameters_rejected(name, bad):
    # A bool used to be taken as 0 or 1, and a string raised a bare TypeError.
    with pytest.raises(ConfigurationError, match=name):
        BehaviorParams(**{name: bad})


def test_parameters_are_stored_as_floats():
    params = BehaviorParams(c0=1, tau=2, mu0=0)
    assert params == BehaviorParams(c0=1.0, tau=2.0, mu0=0.0)
    assert all(type(getattr(params, f.name)) is float for f in fields(params))


@pytest.mark.parametrize("name", [f.name for f in fields(BehaviorParams)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(name, bad):
    with pytest.raises(ConfigurationError):
        BehaviorParams(**{name: bad})


# -- social cost --------------------------------------------------------------

def nets(state, actor, values, social=None, params=PARAMS):
    """victim -> net utility, as `best_target` reports each legal target
    when its walk visits that gift alone."""
    return {victim: net for victim, net, _ in
            lone_targets(state, actor, values, social, params)}


def social_cost(social, thief, victim, params=PARAMS):
    """The SC cost `best_target` charges: with every gift worth 0 and the
    thief empty-handed, the net utility is minus the cost. Seats up to the
    victim open in turn; then the next seat robs the thief, a lower seat,
    who is left empty-handed while the victim's gift stays takeable."""
    state = GameState(5)
    for seat in range(1, victim + 1):
        state.apply_open(seat, seat)
    state.apply_steal(victim + 1, thief)
    return -nets(state, thief, [0.0] * 6, social, params)[victim]


def social_with(n, thief, victim, repeats, committed):
    """A SocialState of `n` seats in which `thief` has stolen `repeats` times
    from `victim` (through `note_steal`, the one writer of `history`) and
    `committed` times in all."""
    social = SocialState(n)
    for _ in range(repeats):
        social.note_steal(thief, victim)
    social.steals_committed[thief] = committed
    return social


def test_first_steal_costs_base_awkwardness():
    social = SocialState(5)
    assert social_cost(social, 2, 3) == pytest.approx(0.05)


def test_repeat_offender_cost():
    # 2 prior steals from the same victim plus 3 lifetime steals:
    # 0.05 + 0.05*2*2 + 0.1*3 = 0.55
    social = social_with(5, 2, 3, repeats=2, committed=3)
    assert social_cost(social, 2, 3) == pytest.approx(0.55)


def test_zero_base_cost_kills_relationship_term():
    params = BehaviorParams(c0=0.0)
    social = social_with(5, 2, 3, repeats=7, committed=4)
    assert social_cost(social, 2, 3, params) == pytest.approx(0.1 * 4)


@given(h=st.integers(0, 10), n=st.integers(0, 20))
def test_social_cost_monotone_in_history_and_totals(h, n):
    """Property: cost never decreases as history or lifetime steals grow."""
    base = social_cost(social_with(4, 1, 2, h, n), 1, 2)
    assert social_cost(social_with(4, 1, 2, h + 1, n), 1, 2) > base
    assert social_cost(social_with(4, 1, 2, h, n + 1), 1, 2) > base


# -- net utility ---------------------------------------------------------------

def build_two_owner_state():
    state = GameState(4)
    state.apply_open(1, 1)
    state.apply_open(2, 2)
    return state


def test_net_utility_empty_handed_no_social_cost():
    state = build_two_owner_state()
    values = [0.0, 0.9, 0.4]  # indexed by gift
    assert best_target(state, 3, values, by_value(values), None,
                       PARAMS) == (1, pytest.approx(0.9), 0.9)
    assert nets(state, 3, values) == {1: pytest.approx(0.9),
                                      2: pytest.approx(0.4)}


def test_net_utility_is_the_gift_value():
    # A seat decides only when empty-handed, so it gives up no holding.
    state = build_two_owner_state()
    state.apply_steal(3, 1)   # seat 3 now holds gift 1
    state.apply_open(1, 3)    # chain ends
    values = [0.0, 0.4, 0.9, 0.1]
    assert nets(state, 4, values)[2] == 0.9  # seat 4 holds nothing


def test_net_utility_with_social_cost():
    state = build_two_owner_state()
    state.apply_steal(3, 1)
    state.apply_open(1, 3)
    social = social_with(4, 4, 2, repeats=2, committed=3)
    values = [0.0, 0.4, 0.9, 0.1]
    got = nets(state, 4, values, social)[2]  # seat 4 holds nothing
    assert got == pytest.approx(0.9 - 0.55)


def test_with_sc_disabled_cost_is_ignored():
    # SC off: the simulation passes no social state, so history never costs.
    state = build_two_owner_state()
    values = [0.0, 0.7, 0.7]
    assert nets(state, 3, values) == {1: pytest.approx(0.7),
                                      2: pytest.approx(0.7)}
    assert best_target(state, 3, values, by_value(values), None,
                       PARAMS)[0] == 1


# -- frustration ----------------------------------------------------------------

def test_frustration_increment_and_cap():
    social = SocialState(3)
    frustration_on_theft(social, 2, 0.15)
    assert social.frustration[2] == pytest.approx(0.15)
    social.frustration[2] = 0.95
    frustration_on_theft(social, 2, 0.15)
    assert social.frustration[2] == pytest.approx(1.0)


def test_two_thefts_accumulate():
    social = SocialState(3)
    frustration_on_theft(social, 2, 0.15)
    frustration_on_theft(social, 2, 0.15)
    assert social.frustration[2] == pytest.approx(0.30)


def test_decay_floor_and_value():
    social = SocialState(3)
    frustration_on_theft(social, 1, 0.15)  # decay visits raised seats only
    frustration_decay(social, 0.05)
    assert social.frustration[1] == pytest.approx(0.10)
    assert social.frustration[2] == 0.0  # floored, not negative


def test_theft_then_three_round_ends_returns_to_zero():
    social = SocialState(2)
    frustration_on_theft(social, 1, 0.15)
    for _ in range(3):
        frustration_decay(social, 0.05)
    assert social.frustration[1] == pytest.approx(0.0)


@given(events=st.lists(st.tuples(st.booleans(), st.integers(1, 4)), max_size=60))
@settings(max_examples=80)
def test_frustration_stays_bounded(events):
    """Property: any interleaving of thefts and decays keeps phi in [0,1],
    and decaying the frustrated seats alone matches the loop over every
    seat exactly."""
    social = SocialState(4)
    reference = [0.0] * 5
    for is_theft, player in events:
        if is_theft:
            frustration_on_theft(social, player, 0.15)
            reference[player] = min(1.0, reference[player] + 0.15)
        else:
            frustration_decay(social, 0.05)
            for i in range(1, 5):
                if reference[i] > 0.0:
                    reference[i] = max(0.0, reference[i] - 0.05)
        assert social.frustration == reference
        assert all(0.0 <= f <= 1.0 for f in social.frustration[1:])


# -- adaptive probabilities ------------------------------------------------------

def test_linear_clips_high():
    p = adaptive_prob_linear(0.5, 1.0, 1.0, 0.2, 0.5)
    assert p == pytest.approx(0.95)  # raw 1.2 clipped


def test_linear_mid_range_value():
    p = adaptive_prob_linear(0.2, 0.0, 0.0, 0.2, 0.5)
    assert p == pytest.approx(0.2)


def test_linear_constant_when_coefficients_vanish():
    for phase in (0.0, 0.5, 1.0):
        assert adaptive_prob_linear(0.5, phase, 1.0, 0, 0) == 0.5


@given(phase=st.floats(0, 1), fr=st.floats(0, 1))
def test_linear_always_inside_clip_band(phase, fr):
    """Property: output stays inside [0.05, 0.95]."""
    p = adaptive_prob_linear(0.5, phase, fr, 0.2, 0.5)
    assert 0.05 <= p <= 0.95


# -- selection weights -------------------------------------------------------------

def test_uniform_at_zero_temperature():
    ws = selection_weights([0.1, 0.5, 0.9], 0.0)
    assert ws == pytest.approx([1 / 3] * 3)


def test_softmax_worked_example():
    ws = selection_weights([0.2, 0.8], 2.0)
    assert ws[0] == pytest.approx(0.23147521650098235, abs=1e-9)
    assert ws[1] == pytest.approx(0.7685247834990176, abs=1e-9)


def test_deterministic_at_huge_temperature():
    ws = selection_weights([0.2, 0.8, 0.5], 1e6)
    assert ws[1] == pytest.approx(1.0)


# 1.0 + 1e-16 rounds back to 1.0, so adding left to right gives 1.0 while a
# compensated sum (math.fsum, or builtin sum from Python 3.12) gives the next
# float up.
UNEVEN = [1.0, 1e-16, 1e-16]


def test_running_total_adds_left_to_right():
    assert math.fsum(UNEVEN) == 1.0000000000000002  # the orders differ here
    assert running_total(UNEVEN) == 1.0
    assert running_total(reversed(UNEVEN)) == 1.0000000000000002
    assert running_total([]) == 0.0


def test_selection_weights_total_left_to_right():
    # Weights exp(v - top) of [1, 1e-16, 1e-16]: the total that divides them
    # must not depend on the Python version's builtin sum.
    values = [0.0, math.log(1e-16), math.log(1e-16)]
    ws = [math.exp(v) for v in values]
    total = 0.0
    for w in ws:
        total += w
    assert total != math.fsum(ws)
    assert selection_weights(values, 1.0) == [w / total for w in ws]


def test_empty_pool_rejected():
    with pytest.raises(ValueError):
        selection_weights([], 2.0)


def test_negative_temperature_rejected():
    with pytest.raises(ConfigurationError, match="tau"):
        selection_weights([0.2, 0.8], tau=-1.0)


@given(values=st.lists(st.floats(0, 1), min_size=1, max_size=20),
       tau=st.floats(0.01, 10), shift=st.floats(-5, 5))
@settings(max_examples=100)
def test_selection_weight_properties(values, tau, shift):
    """Property: sums to 1, shift-invariant, argmax-preserving for tau > 0."""
    ws = selection_weights(values, tau)
    assert abs(sum(ws) - 1.0) < 1e-12
    shifted = selection_weights([v + shift for v in values], tau)
    assert ws == pytest.approx(shifted, abs=1e-9)
    ranked = sorted(values)
    if len(values) > 1 and ranked[-1] - ranked[-2] > 1e-6:
        assert ws.index(max(ws)) == values.index(max(values))
