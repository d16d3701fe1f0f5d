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

from dataclasses import dataclass

from .behavior import BehaviorParams
from .errors import ConfigurationError


@dataclass(frozen=True)
class Prior:
    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance <= 0:
            raise ConfigurationError("prior variance must be positive")


@dataclass(frozen=True)
class Posterior:
    mean: float
    variance: float


def posterior(prior: Prior, signal: float, signal_sd: float) -> Posterior:
    """Conjugate Gaussian update from one appearance signal.

    The posterior mean is the precision-weighted average of prior mean and
    signal; the weight on the signal is sigma0^2 / (sigma0^2 + sigma_a^2).
    """
    if signal_sd <= 0:
        raise ConfigurationError("signal noise must be positive")
    s0, sa = prior.variance, signal_sd * signal_sd
    omega = s0 / (s0 + sa)
    mean = (1.0 - omega) * prior.mean + omega * signal
    variance = s0 * sa / (s0 + sa)
    return Posterior(mean=mean, variance=variance)


def certainty_equivalent(mean: float, variance: float, risk_aversion: float) -> float:
    """CARA certainty equivalent: mean - (risk/2) * variance."""
    if variance < 0 or risk_aversion < 0:
        raise ConfigurationError("variance and risk aversion must be non-negative")
    return mean - 0.5 * risk_aversion * variance


def wrapped_gift_value(signal: float, params: BehaviorParams) -> float:
    """Certainty equivalent of a wrapped gift given its appearance signal.

    This is the perceived value of a wrapped gift under PI; it may dip
    slightly below the posterior mean and is deliberately not clipped. A
    numpy array of signals gives the same floats element by element.
    """
    post = posterior(Prior(params.mu0, params.sigma0_sq), signal, params.sigma_a)
    return certainty_equivalent(post.mean, post.variance, params.rho_risk)

