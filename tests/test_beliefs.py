"""Belief math: conjugate posterior, certainty equivalent, perceived value:
wrapped gifts through `wrapped_gift_value`, steal targets at true value."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from giftex.behavior import BehaviorParams
from giftex.beliefs import (Posterior, Prior, certainty_equivalent, posterior,
                            wrapped_gift_value)
from giftex.engine import initial_state
from giftex.errors import ConfigurationError
from giftex.strategies import best_target
from giftex.valuation import (ModelKind, ValuationModel, generate_appearance,
                              generate_valuations)

PRIOR = Prior(mean=0.5, variance=0.25)


def test_posterior_hand_computed_example():
    post = posterior(PRIOR, signal=0.8, signal_sd=0.3)
    # omega = 0.25/0.34; mean = (1-w)*0.5 + w*0.8; var = 0.25*0.09/0.34
    assert post.mean == pytest.approx(0.7205882352941176, abs=1e-9)
    assert post.variance == pytest.approx(0.0661764705882353, abs=1e-9)


def test_posterior_ignores_infinitely_noisy_signal():
    post = posterior(PRIOR, signal=0.9, signal_sd=1e9)
    assert post.mean == pytest.approx(PRIOR.mean, abs=1e-9)
    assert post.variance == pytest.approx(PRIOR.variance, abs=1e-9)


def test_posterior_fixed_point_at_prior_mean():
    post = posterior(PRIOR, signal=0.5, signal_sd=0.3)
    assert post.mean == pytest.approx(0.5, abs=1e-12)


def test_posterior_rejects_bad_variances():
    with pytest.raises(ConfigurationError):
        Prior(mean=0.5, variance=0.0)
    with pytest.raises(ConfigurationError):
        posterior(PRIOR, signal=0.5, signal_sd=0.0)


@given(signal=st.floats(min_value=0.0, max_value=1.0),
       sd=st.floats(min_value=0.01, max_value=5.0))
def test_posterior_variance_strictly_shrinks(signal, sd):
    """Property: posterior variance < min(prior variance, signal variance)."""
    post = posterior(PRIOR, signal, sd)
    assert post.variance < PRIOR.variance
    assert post.variance < sd * sd


def test_posterior_mean_monotone_in_signal():
    sd = 0.3
    omega = PRIOR.variance / (PRIOR.variance + sd * sd)
    means = [posterior(PRIOR, a, sd).mean for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b > a for a, b in zip(means, means[1:]))
    slope = (means[-1] - means[0]) / 1.0
    assert slope == pytest.approx(omega, abs=1e-12)
    assert 0.0 < omega < 1.0


def test_certainty_equivalent_examples():
    assert certainty_equivalent(0.7, 0.1, 0.0) == pytest.approx(0.7, abs=1e-12)
    assert certainty_equivalent(0.7, 0.0, 2.0) == pytest.approx(0.7, abs=1e-12)
    assert certainty_equivalent(0.7205882352941176, 0.0661764705882353, 0.5) \
        == pytest.approx(0.7040441176470588, abs=1e-9)


@given(mean=st.floats(-1, 2), var=st.floats(0, 1), risk=st.floats(0, 3))
def test_certainty_equivalent_never_exceeds_mean(mean, var, risk):
    """Property: CE <= mean, equality iff risk*variance vanishes."""
    ce = certainty_equivalent(mean, var, risk)
    assert ce <= mean + 1e-15
    if risk * var == 0:
        assert ce == pytest.approx(mean, abs=1e-15)


# -- perceived value ----------------------------------------------------------

def build_fixture(sigma_a=0.3, rho_risk=0.5):
    params = BehaviorParams(sigma_a=sigma_a, rho_risk=rho_risk)
    rng = np.random.default_rng(77)
    vm = generate_valuations(ValuationModel(ModelKind.INDEPENDENT), 5, rng)
    app = generate_appearance(vm.quality, params.sigma_a, rng)
    return vm, app, params


def target_values(state, actor, vm, params):
    """victim's gift -> the value a steal target carries, as `best_target`
    reports it when every other opened gift is chain-locked (SC off)."""
    row = [0.0] + vm.values[actor - 1].tolist()
    order = sorted(range(1, len(row)), key=row.__getitem__, reverse=True)
    opened = set(state.opened_order)
    out = {}
    for gift in state.opened_order:
        state.chain_locked = opened - {gift}
        best = best_target(state, actor, row, order, 0.0, None, params)
        if best is not None:
            out[state.ownership[best[0]]] = best[2]
    state.chain_locked = set()
    return out


def test_without_pi_everything_is_true_value():
    vm, app, params = build_fixture()
    state = initial_state(5)
    for seat in range(1, 6):
        state.apply_open(seat, seat)
    got = target_values(state, 3, vm, params)
    assert got == {g: pytest.approx(vm.values[3 - 1, g - 1]) for g in (1, 2, 4, 5)}


def test_with_pi_opened_gift_is_true_value():
    # Steal targets are opened gifts; partial information never blurs them.
    vm, app, params = build_fixture()
    state = initial_state(5)
    state.apply_open(1, 2)  # gift 2 opened, rest wrapped
    assert target_values(state, 3, vm, params) == {
        2: pytest.approx(vm.values[3 - 1, 2 - 1])}


def test_with_pi_wrapped_gift_is_risk_adjusted_posterior():
    vm, app, params = build_fixture()
    post = posterior(Prior(params.mu0, params.sigma0_sq), app.signals[4 - 1],
                     params.sigma_a)
    assert wrapped_gift_value(app.signals[4 - 1], params) == pytest.approx(
        certainty_equivalent(post.mean, post.variance, params.rho_risk))
    # worked example: signal 0.8 with the default parameters
    assert wrapped_gift_value(0.8, BehaviorParams()) == pytest.approx(
        0.7040441176470588, abs=1e-9)


def test_wrapped_gift_value_on_an_array_matches_each_signal():
    """Play values the whole appearance vector in one call; each element
    must be the float the scalar call gives."""
    signals = np.concatenate([np.random.default_rng(4).normal(0.5, 0.5, 500),
                              [0.0, 1.0, -0.0, 1e-300, -3.0, 4.0]])
    for params in (BehaviorParams(), BehaviorParams(sigma_a=0.07, mu0=0.3,
                                                    rho_risk=2.5)):
        assert wrapped_gift_value(signals, params).tolist() == [
            wrapped_gift_value(s, params) for s in signals.tolist()]


def test_pi_reduces_to_full_information_in_the_noiseless_risk_free_limit():
    # All players value gifts exactly at quality; signals equal quality.
    n = 6
    rng = np.random.default_rng(5)
    vm = generate_valuations(ValuationModel(ModelKind.CORRELATED, rho=1.0), n, rng)
    params = BehaviorParams(sigma_a=1e-9, rho_risk=0.0)
    app = generate_appearance(vm.quality, 1e-12, rng)
    for gift in range(1, n + 1):
        got = wrapped_gift_value(app.signals[gift - 1], params)
        assert got == pytest.approx(vm.values[2 - 1, gift - 1], abs=1e-6)
