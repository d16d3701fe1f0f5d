"""The six decision strategies and the one steal-target scan.

Every decision point compares the best available steal against opening. A
target is a (victim seat, net steal utility, perceived value of the victim's
gift) triple; `best_target` finds the one with maximal net utility, ties
broken toward the lowest seat, and `decide` reads only that winner. The scan
walks the actor's value row in descending order, sorted once per game, and
stops as soon as no remaining gift can win, so a decision seldom looks at
every opened gift. All "exceeds" comparisons are strict, so exact ties favor
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


STRATEGY_ORDER = tuple(Strategy)

# The members as module globals: on Python 3.11 a `Strategy.X` lookup goes
# through the enum metaclass and costs about 200 ns, a global about 30 ns.
(ALWAYS_OPEN, ALWAYS_STEAL, COIN_FLIP, MEAN_BASED, THRESHOLD,
 EXPECTED_VALUE) = STRATEGY_ORDER


def best_target(state, actor: int, values: Sequence[float],
                order: Sequence[int], own_value: float, social,
                params) -> Optional[tuple[int, float, float]]:
    """The steal `actor` values most, as (victim seat, net utility, gift
    value), or None when no opened gift may be stolen.

    `values[g]` is the actor's true value of gift g, `order` the actor's gift
    ids by descending value, and `own_value` the value of its holding, 0 when
    empty-handed. The walk skips wrapped gifts, the actor's own, and every
    gift `GameState.stealable` refuses (that rule, inlined: this is the hot
    path). With `social` (SC on) the net also pays the social cost: norm
    violation plus reputation, plus damage growing with prior steals from the
    same victim. A strictly greater net wins; an equal net goes to the lower
    seat.

    The walk stops at the first gift whose bound `value - own_value -
    base_cost` is below the best net so far. The bound holds in floats: the
    repeat cost is >= 0 (`BehaviorParams` refuses negative c0, alpha and
    beta), float subtraction is monotone in its subtrahend, and the values
    only fall along `order`. On a bound equal to the best net the
    walk goes on, since a lower seat may still tie.
    """
    holder, locked = state.holder, state.chain_locked
    lifetime, total = state.limits.lifetime, state.total_steals
    base_cost = 0.0
    if social is not None:
        base_cost = params.c0 + params.beta * social.steals_committed[actor]
        repeat_cost = params.c0 * params.alpha
        h_row = social.history[actor]
    best_victim, best_net, best_value = 0, 0.0, 0.0  # seat 0: none yet
    for g in order:
        victim = holder[g]
        if (victim is None or victim == actor or g in locked
                or (lifetime and total[g] >= lifetime)):
            continue
        value = values[g]
        if best_victim and value - own_value - base_cost < best_net:
            break
        net = value - own_value
        if social is not None:
            # Float addition is not associative; the exports pin this order.
            net -= base_cost + repeat_cost * h_row[victim]
        if (not best_victim or net > best_net
                or (net == best_net and victim < best_victim)):
            best_victim, best_net, best_value = victim, net, value
    return (best_victim, best_net, best_value) if best_victim else None


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


def decide(kind: Strategy, best: Optional[tuple[int, float, float]],
           own_value: float, opened_mean: float, wrapped_mean: float,
           threshold: float, rng) -> Optional[int]:
    """Steal-or-open decision for one strategy at one decision point, given
    the `best_target` winner: the victim seat to steal from, or None to open.

    Each rule reads only its own inputs: MEAN_BASED reads `opened_mean`,
    THRESHOLD `threshold`, EXPECTED_VALUE `wrapped_mean` and `own_value`;
    whatever is passed for the rest is ignored. Only COIN_FLIP consumes
    randomness, and only when a target exists.
    """
    if best is None or kind is ALWAYS_OPEN:
        return None
    victim, net_utility, gift_value = best
    if kind is ALWAYS_STEAL:
        steal = True
    elif kind is COIN_FLIP:
        steal = rng.random() < 0.5
    elif kind is MEAN_BASED:
        steal = gift_value > opened_mean
    elif kind is THRESHOLD:
        steal = net_utility > threshold
    elif kind is EXPECTED_VALUE:
        # Opening a random wrapped gift nets (pool mean - current holding);
        # steal wins only when its net beats that.
        steal = net_utility > wrapped_mean - own_value
    else:
        raise ValueError(f"unknown strategy {kind!r}")
    return victim if steal else None
