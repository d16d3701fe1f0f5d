"""Partial-information machinery: Gaussian posterior over gift quality, CARA
certainty equivalent, and the value of a wrapped gift seen through its
appearance signal. Opened gifts are always seen at their true value.

Players share a common Normal(mu0, sigma0_sq) prior over quality and observe
one clipped appearance signal per gift. The conjugate update gives a posterior
whose precision is the sum of prior and signal precisions; risk aversion then
discounts the posterior mean by half the risk coefficient times the variance.

The clipped signal (what a player actually observes) feeds the update; the
signal is treated as directly informative about subjective value, folding
taste correlation into the quality estimate. The uncertainty penalty is the
CARA term alone; no separate additive penalty exists.
"""

from __future__ import annotations

from .behavior import BehaviorParams


def wrapped_gift_value(signal: float, params: BehaviorParams) -> float:
    """Certainty equivalent of a wrapped gift given its appearance signal.

    The posterior mean puts weight sigma0^2 / (sigma0^2 + sigma_a^2) on the
    signal; the certainty equivalent subtracts rho/2 times the posterior
    variance. `BehaviorParams` refuses non-positive variances, negative risk
    aversion and non-finite values, so no guard is repeated here.

    This is the perceived value of a wrapped gift under PI; it may dip
    slightly below the posterior mean and is deliberately not clipped. A
    numpy array of signals gives the same floats element by element.
    """
    s0, sa = params.sigma0_sq, params.sigma_a * params.sigma_a
    omega = s0 / (s0 + sa)
    mean = (1.0 - omega) * params.mu0 + omega * signal
    variance = s0 * sa / (s0 + sa)
    return mean - 0.5 * params.rho_risk * variance
