"""The six decision strategies and shared steal-target selection.

Every decision point compares the best available steal against opening. A
target is a (victim seat, net steal utility, perceived value of the victim's
gift) triple; the best target maximizes net utility with ties broken toward
the lowest seat. All "exceeds" comparisons are strict, so exact ties favor
opening.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence


class Strategy(Enum):
    ALWAYS_OPEN = "always_open"
    ALWAYS_STEAL = "always_steal"
    COIN_FLIP = "coin_flip"
    MEAN_BASED = "mean_based"
    THRESHOLD = "threshold"
    EXPECTED_VALUE = "expected_value"


STRATEGY_ORDER = (
    Strategy.ALWAYS_OPEN,
    Strategy.ALWAYS_STEAL,
    Strategy.COIN_FLIP,
    Strategy.MEAN_BASED,
    Strategy.THRESHOLD,
    Strategy.EXPECTED_VALUE,
)


def best_target(
    targets: Sequence[tuple[int, float, float]],
) -> Optional[tuple[int, float, float]]:
    """Legal target with maximal net utility; ties go to the lowest seat."""
    best = None
    for entry in targets:
        if best is None or entry[1] > best[1] or (entry[1] == best[1] and entry[0] < best[0]):
            best = entry
    return best


def choose_open_gift(pool: Sequence[int], weights: Optional[Sequence[float]],
                     rng) -> int:
    """Pick a wrapped gift from `pool`: uniform when `weights` is None, else
    by the selection weight indexed by gift id."""
    assert pool, "no wrapped gift available at a decision point"
    if weights is None:
        return pool[int(rng.integers(0, len(pool)))]
    total = 0.0
    for gift in pool:
        total += weights[gift]
    r = rng.random() * total
    acc = 0.0
    for gift in pool:
        acc += weights[gift]
        if r < acc:
            return gift
    return pool[-1]  # r == total under float roundoff


def decide(kind: Strategy, targets: Sequence[tuple[int, float, float]],
           own_value: float, opened_mean: float, wrapped_mean: float,
           threshold: float, rng) -> Optional[int]:
    """Steal-or-open decision for one strategy at one decision point: the
    victim seat to steal from, or None to open.

    Only COIN_FLIP consumes randomness, and only when a target exists.
    """
    best = best_target(targets)
    if best is None or kind is Strategy.ALWAYS_OPEN:
        return None
    victim, net_utility, gift_value = best
    if kind is Strategy.ALWAYS_STEAL:
        steal = True
    elif kind is Strategy.COIN_FLIP:
        steal = rng.random() < 0.5
    elif kind is Strategy.MEAN_BASED:
        steal = gift_value > opened_mean
    elif kind is Strategy.THRESHOLD:
        steal = net_utility > threshold
    elif kind is Strategy.EXPECTED_VALUE:
        # Opening a random wrapped gift nets (pool mean - current holding);
        # steal wins only when its net beats that.
        steal = net_utility > wrapped_mean - own_value
    else:
        raise ValueError(f"unknown strategy {kind!r}")
    return victim if steal else None
