"""Behavioral decorations: social costs, frustration, adaptive steal
probability and biased gift selection. The SC cost itself is charged inside
`strategies.best_target`, the one scan over steal targets.

The four toggleable features:

* PI -- partial information: wrapped gifts are valued through noisy appearance
  signals and a Gaussian posterior instead of their true values.
* SC -- social costs: each steal carries a norm-violation cost that grows with
  repeat targeting of the same victim and with the thief's lifetime steals.
* AD -- adaptive dynamics: a clipped linear model of phase and frustration
  gates each steal/open decision.
* BS -- biased selection: opening picks among wrapped gifts by softmax weight
  instead of uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import reduce
from operator import add
from typing import Iterable, Sequence

from .errors import ConfigurationError, require_float


class Feature(Enum):
    PI = "pi"
    SC = "sc"
    AD = "ad"
    BS = "bs"


FEATURE_ORDER = tuple(Feature)

ALL_FEATURES = frozenset(FEATURE_ORDER)


def feature_set(*names: str) -> frozenset[Feature]:
    """Parse feature names (case-insensitive) into a feature set."""
    try:
        return frozenset(Feature(name.strip().lower()) for name in names if name.strip())
    except ValueError as exc:
        raise ConfigurationError(f"unknown feature: {exc}") from None


def feature_label(features: frozenset[Feature]) -> str:
    """Canonical label: BASE, FULL, or '+'-joined names in PI,SC,AD,BS order."""
    if not features:
        return "BASE"
    if features == ALL_FEATURES:
        return "FULL"
    return "+".join(f.name for f in FEATURE_ORDER if f in features)


@dataclass(frozen=True)
class BehaviorParams:
    """Every behavioral constant in one record; features are toggled per
    condition, not here."""

    # social costs
    c0: float = 0.05          # base norm-violation cost
    alpha: float = 2.0        # repeat-victim multiplier
    beta: float = 0.1         # reputation cost per lifetime steal
    # frustration dynamics
    gamma: float = 0.15       # increment when stolen from
    gamma_prime: float = 0.05 # decay per round end
    # adaptive steal probability
    p0: float = 0.5           # base steal probability (linear-clip intercept)
    lambda1: float = 0.2      # phase coefficient
    lambda2: float = 0.5      # frustration coefficient
    # Satisfaction coefficient, read by nothing: a seat decides only when
    # empty-handed. Validated and echoed until a benchmark change rewrites
    # `perfbench/pins.json`, whose factorial JSON hashes hold the echo.
    lambda3: float = 0.3
    # biased selection
    tau: float = 2.0          # softmax temperature
    # beliefs
    mu0: float = 0.5          # prior mean over quality
    sigma0_sq: float = 0.25   # prior variance
    sigma_a: float = 0.3      # appearance signal noise sd
    rho_risk: float = 0.5     # CARA risk aversion
    # fixed-threshold strategy
    threshold: float = 0.6

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name,
                               require_float(f.name, getattr(self, f.name)))
        for name in ("c0", "alpha", "beta", "gamma", "gamma_prime", "p0",
                     "lambda1", "lambda2", "lambda3", "tau", "rho_risk",
                     "threshold"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.sigma0_sq <= 0 or self.sigma_a <= 0:
            raise ConfigurationError("variances must be positive")


class SocialState:
    """Per-game social bookkeeping: frustration, steal counts, victim history.

    Counters cover the whole game including chains; the final swap is a strict
    trade and touches nothing here.

    `history[thief][victim]` counts the thief's steals from the victim. A
    seat's row is a list made at its first steal; until then the seat reads
    the one zero row all such seats share, an immutable `bytes`, so a read
    creates nothing. Only `note_steal` writes a row.
    """

    __slots__ = ("frustration", "frustrated", "steals_committed", "history")

    def __init__(self, n: int) -> None:
        self.frustration = [0.0] * (n + 1)
        self.frustrated: set[int] = set()  # seats `frustration_decay` visits
        self.steals_committed = [0] * (n + 1)
        self.history: list[Sequence[int]] = [bytes(n + 1)] * (n + 1)

    def note_steal(self, thief: int, victim: int) -> None:
        """Record a completed steal in the thief's history and totals."""
        row = self.history[thief]
        if type(row) is bytes:
            row = self.history[thief] = list(row)
        row[victim] += 1
        self.steals_committed[thief] += 1


def frustration_on_theft(social: SocialState, victim: int, gamma: float) -> None:
    """Bump the victim's frustration by gamma, capped at 1."""
    social.frustration[victim] = min(1.0, social.frustration[victim] + gamma)
    social.frustrated.add(victim)


def frustration_decay(social: SocialState, gamma_prime: float) -> None:
    """Decay every player's frustration by gamma_prime, floored at 0.

    Called once at each round's end; applies to thieves and victims alike.
    Only seats `frustration_on_theft` raised are visited, each until it is
    back at 0.0, so a value written to `frustration` directly never decays.
    """
    fr, frustrated = social.frustration, social.frustrated
    for i in tuple(frustrated):
        fr[i] = max(0.0, fr[i] - gamma_prime)
        if fr[i] == 0.0:
            frustrated.remove(i)


def adaptive_prob_linear(p0: float, phase: float, frustration: float,
                         lambda1: float, lambda2: float) -> float:
    """Clipped linear steal probability used by the simulation."""
    p = p0 + lambda1 * phase + lambda2 * frustration
    return min(0.95, max(0.05, p))


def selection_weights(values: Sequence[float], tau: float) -> list[float]:
    """Softmax weights exp(tau * v) / sum, shift-invariant and summing to 1."""
    if len(values) == 0:
        raise ValueError("selection over an empty gift pool")
    if tau < 0:
        raise ConfigurationError("tau must be non-negative")
    top = max(values)
    ws = [math.exp(tau * (v - top)) for v in values]
    total = running_total(ws)
    return [w / total for w in ws]


def running_total(xs: Iterable[float]) -> float:
    """The left-to-right float total of `xs` from 0.0: the same bits on every
    Python version, where builtin `sum` compensates its rounding from 3.12."""
    return reduce(add, xs, 0.0)
