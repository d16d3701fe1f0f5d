"""Belief math: conjugate posterior, certainty equivalent, perceived value:
wrapped gifts through `wrapped_gift_value`, steal targets at true value."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from giftex.behavior import BehaviorParams
from giftex.beliefs import wrapped_gift_value
from giftex.engine import GameState
from giftex.errors import ConfigurationError
from giftex.valuation import (ModelKind, ValuationModel, generate_appearance,
                              generate_valuations)
from reference import lone_targets

PRIOR = BehaviorParams(mu0=0.5, sigma0_sq=0.25)


def reference_posterior(mu0, s0, signal, signal_sd):
    """Conjugate Gaussian update from one appearance signal: (mean, variance)."""
    sa = signal_sd * signal_sd
    omega = s0 / (s0 + sa)
    return (1.0 - omega) * mu0 + omega * signal, s0 * sa / (s0 + sa)


def reference_value(signal, params):
    """Posterior, then the CARA certainty equivalent mean - (rho/2) * variance."""
    mean, variance = reference_posterior(params.mu0, params.sigma0_sq, signal,
                                         params.sigma_a)
    return mean - 0.5 * params.rho_risk * variance


def posterior_mean(signal, signal_sd, prior=PRIOR):
    """With no risk aversion the certainty equivalent is the posterior mean."""
    return wrapped_gift_value(
        signal, replace(prior, sigma_a=signal_sd, rho_risk=0.0))


def posterior_variance(signal_sd, prior=PRIOR):
    """With a zero prior mean, a zero signal and risk aversion 2 the certainty
    equivalent is exactly minus the posterior variance."""
    return -wrapped_gift_value(
        0.0, replace(prior, mu0=0.0, sigma_a=signal_sd, rho_risk=2.0))


def test_posterior_hand_computed_example():
    # omega = 0.25/0.34; mean = (1-w)*0.5 + w*0.8; var = 0.25*0.09/0.34
    assert posterior_mean(0.8, 0.3) == pytest.approx(0.7205882352941176, abs=1e-9)
    assert posterior_variance(0.3) == pytest.approx(0.0661764705882353, abs=1e-9)


def test_posterior_ignores_infinitely_noisy_signal():
    assert posterior_mean(0.9, 1e9) == pytest.approx(PRIOR.mu0, abs=1e-9)
    assert posterior_variance(1e9) == pytest.approx(PRIOR.sigma0_sq, abs=1e-9)


def test_posterior_fixed_point_at_prior_mean():
    assert posterior_mean(0.5, 0.3) == pytest.approx(0.5, abs=1e-12)


def test_posterior_rejects_bad_variances():
    # The guards live in BehaviorParams, before any value is computed.
    with pytest.raises(ConfigurationError):
        BehaviorParams(mu0=0.5, sigma0_sq=0.0)
    with pytest.raises(ConfigurationError):
        BehaviorParams(sigma_a=0.0)


@given(signal=st.floats(min_value=0.0, max_value=1.0),
       sd=st.floats(min_value=0.01, max_value=5.0))
def test_posterior_variance_strictly_shrinks(signal, sd):
    """Property: posterior variance < min(prior variance, signal variance)."""
    variance = posterior_variance(sd)
    assert variance < PRIOR.sigma0_sq
    assert variance < sd * sd


def test_posterior_mean_monotone_in_signal():
    sd = 0.3
    omega = PRIOR.sigma0_sq / (PRIOR.sigma0_sq + sd * sd)
    means = [posterior_mean(a, sd) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b > a for a, b in zip(means, means[1:]))
    slope = (means[-1] - means[0]) / 1.0
    assert slope == pytest.approx(omega, abs=1e-12)
    assert 0.0 < omega < 1.0


def test_certainty_equivalent_examples():
    # A signal at the prior mean keeps the posterior mean there; equal prior
    # and signal variances 0.2 halve to a posterior variance of 0.1, and a
    # signal sd whose square underflows leaves a posterior variance of 0.
    at_07 = BehaviorParams(mu0=0.7, sigma0_sq=0.2, sigma_a=math.sqrt(0.2),
                           rho_risk=0.0)
    assert posterior_variance(at_07.sigma_a, at_07) == pytest.approx(0.1)
    assert wrapped_gift_value(0.7, at_07) == pytest.approx(0.7, abs=1e-12)
    exact = replace(at_07, sigma_a=1e-200, rho_risk=2.0)
    assert posterior_variance(exact.sigma_a, exact) == 0.0
    assert wrapped_gift_value(0.7, exact) == pytest.approx(0.7, abs=1e-12)
    assert wrapped_gift_value(0.8, BehaviorParams(rho_risk=0.5)) \
        == pytest.approx(0.7040441176470588, abs=1e-9)


@given(signal=st.floats(-1, 2), sd=st.floats(1e-200, 5.0),
       risk=st.floats(0, 3))
def test_certainty_equivalent_never_exceeds_mean(signal, sd, risk):
    """Property: CE <= mean, equality iff risk*variance vanishes."""
    params = replace(PRIOR, sigma_a=sd, rho_risk=risk)
    mean = posterior_mean(signal, sd)
    ce = wrapped_gift_value(signal, params)
    assert ce <= mean + 1e-15
    if risk * posterior_variance(sd) == 0:
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
    reports it when its walk visits that gift alone (SC off)."""
    row = [0.0] + vm.values[actor - 1].tolist()
    return {state.ownership[victim]: value for victim, _, value in
            lone_targets(state, actor, row, None, params)}


def test_without_pi_everything_is_true_value():
    vm, app, params = build_fixture()
    # Seats 1-5 open their own gifts, then seat 6 robs seat 3, the actor,
    # who holds nothing; gift 3 is chain-locked and gift 6, which the
    # five-seat values never name, stays wrapped.
    state = GameState(6)
    for seat in range(1, 6):
        state.apply_open(seat, seat)
    state.apply_steal(6, 3)
    got = target_values(state, 3, vm, params)
    assert got == {g: pytest.approx(vm.values[3 - 1, g - 1]) for g in (1, 2, 4, 5)}


def test_with_pi_opened_gift_is_true_value():
    # Steal targets are opened gifts; partial information never blurs them.
    vm, app, params = build_fixture()
    state = GameState(5)
    state.apply_open(1, 2)  # gift 2 opened, rest wrapped
    assert target_values(state, 3, vm, params) == {
        2: pytest.approx(vm.values[3 - 1, 2 - 1])}


def test_with_pi_wrapped_gift_is_risk_adjusted_posterior():
    vm, app, params = build_fixture()
    signal = float(app.signals[4 - 1])
    mean, variance = reference_posterior(params.mu0, params.sigma0_sq, signal,
                                         params.sigma_a)
    assert wrapped_gift_value(signal, params) == pytest.approx(
        mean - 0.5 * params.rho_risk * variance)
    # worked example: signal 0.8 with the default parameters
    assert wrapped_gift_value(0.8, BehaviorParams()) == pytest.approx(
        0.7040441176470588, abs=1e-9)


def test_wrapped_gift_value_on_an_array_matches_each_signal():
    """Play values the whole appearance vector in one call; each element
    must be the float the scalar call gives, and both must be bit for bit
    the two-step posterior-then-CE reference."""
    rng = np.random.default_rng(4)
    signals = np.concatenate([rng.normal(0.5, 0.5, 500),
                              [0.0, 1.0, -0.0, 1e-300, -3.0, 4.0]])
    cases = [BehaviorParams(), BehaviorParams(sigma_a=0.07, mu0=0.3,
                                              rho_risk=2.5),
             BehaviorParams(rho_risk=0.0),
             BehaviorParams(sigma_a=1e-200),  # sigma_a**2 underflows to 0
             BehaviorParams(sigma_a=1e-200, rho_risk=0.0)]
    cases += [BehaviorParams(mu0=float(rng.uniform(-1, 2)),
                             sigma0_sq=float(10 ** rng.uniform(-6, 2)),
                             sigma_a=float(10 ** rng.uniform(-6, 2)),
                             rho_risk=float(rng.uniform(0, 5)))
              for _ in range(40)]
    for params in cases:
        want = [reference_value(s, params).hex() for s in signals.tolist()]
        assert [v.hex() for v in
                wrapped_gift_value(signals, params).tolist()] == want
        assert [wrapped_gift_value(s, params).hex()
                for s in signals.tolist()] == want


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
