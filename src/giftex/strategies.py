"""The six decision strategies and the one steal-target scan.

Every decision point compares the best available steal against opening. A
target is a (victim seat, net steal utility, perceived value of the victim's
gift) triple; `best_target` finds the one with maximal net utility, ties
broken toward the lowest seat, and `decide` reads only that winner. The scan
walks the actor's value row in descending order, sorted once per game, and
stops as soon as no remaining gift can win, so a decision seldom looks at
every opened gift. A seat holding a gift has no decision (`apply_steal`
refuses such a thief), so the scan answers it None at once. The walk runs in
two phases: up to the first takeable gift, then on from there. With SC off
the net is the value, and the values only fall along the order, so a later
gift can win only by an equal value with a lower seat; that phase reads
values alone and reads a holder only on an exact tie. With SC on it keeps
the bounded walk over net utilities. With SC off and a table of the gifts
tied at the actor's top value, a takeable gift in that tie is found without
a walk, by one lookup of the engine's seat-indexed `offer` bytes. All
"exceeds" comparisons are strict, so exact ties favor opening.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

import numpy as np


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
                order: Sequence[int], social, params,
                top: bytes = b"") -> Optional[tuple[int, float, float]]:
    """The steal `actor` values most, as (victim seat, net utility, gift
    value), or None when no opened gift may be stolen.

    `values` is any float sequence indexed by gift id (play passes a float64
    row view), `values[g]` the actor's true value of gift g, and `order` the
    actor's gift ids by descending value, any sequence of ints (play passes
    a row view of one unsigned id array; a list does too). An actor holding
    a gift gets None, since `apply_steal` refuses such a thief. For an
    empty-handed actor the walk skips every gift whose `GameState.takeable`
    flag is off: wrapped, chain-locked or at the lifetime cap. The net is
    the gift's value, since no holding is given up. With `social` (SC on)
    the net also pays the social cost: norm violation plus reputation, plus
    damage growing with prior steals from the same victim. A strictly
    greater net wins; an equal net goes to the lower seat.

    The walk has two phases. Phase 1 runs to the first candidate, a
    takeable gift. Phase 2 goes on from there.

    - SC off, the net is the value. The values only fall along `order`, so
      no later gift can beat the candidate, and one of equal value can win
      only with a lower seat. Phase 2 reads each takeable gift's value,
      stops at the first lower one, and reads the holder only on an exact
      tie, keeping the lower seat.
    - SC on, phase 2 stops at the first gift whose bound `value -
      base_cost` is below the best net so far. The bound holds in floats:
      the repeat cost is >= 0 (`BehaviorParams` refuses negative c0, alpha
      and beta), float subtraction is monotone in its subtrahend, and the
      values only fall along `order`. On a bound equal to the best net the
      walk goes on, since a lower seat may still tie.

    `top`, when not empty, is a 256-byte table with a 1 at each gift id
    whose value equals the actor's row maximum (`top_table` builds it). It
    is read only with SC off and while the engine keeps `GameState.offer`.
    Then the winner, if any takeable gift sits at the row maximum, is the
    lowest seat whose `offer` entry is such a gift: `translate` maps each
    seat's entry through the table (an entry of 0 to 0), and `find` returns
    the first 1 from seat 1 on. With no such seat, every gift of the tie
    is wrapped, chain-locked or capped, and the walk runs as above from the
    first id below the tie.
    """
    if state.ownership[actor] is not None:
        return None
    if top and social is None and state.offer is not None:
        seat = state.offer.translate(top).find(1, 1)
        if seat > 0:
            value = values[order[0]]
            return seat, value, value
        # No seat offers a top gift: every gift of the tie, the first
        # `top.count(1)` of `order`, is untakeable.
        order = order[top.count(1):]
    holder, takeable = state.holder, state.takeable
    walk = iter(order)
    for g in walk:
        if takeable[g]:
            break
    else:
        return None
    best_victim, best_value = holder[g], values[g]
    if social is None:
        for g in walk:
            if takeable[g]:
                value = values[g]
                if value < best_value:
                    break
                victim = holder[g]  # an exact tie
                if victim < best_victim:
                    best_victim, best_value = victim, value
        return best_victim, best_value, best_value
    base_cost = params.c0 + params.beta * social.steals_committed[actor]
    repeat_cost = params.c0 * params.alpha
    h_row = social.history[actor]
    # Float addition is not associative; the exports pin this order.
    best_net = best_value - (base_cost + repeat_cost * h_row[best_victim])
    for g in walk:
        if not takeable[g]:
            continue
        value = values[g]
        if value - base_cost < best_net:
            break
        victim = holder[g]
        net = value - (base_cost + repeat_cost * h_row[victim])
        if net > best_net or (net == best_net and victim < best_victim):
            best_victim, best_net, best_value = victim, net, value
    return best_victim, best_net, best_value


# Play builds `top_table`s only above this many players: below it a tie run
# at the top is short, and building and reading the tables costs more than
# the walk they spare. Measured in one process on a 2-vCPU Xeon VM, BASE
# games with tables ran 1-10% slower at n = 29 and 48 and within noise at
# n = 65; correlated ones ran 13% faster at n = 100 and 34% at n = 200.
TOP_TABLE_ABOVE = 64


def top_table(values: Sequence[float], order: Sequence[int]) -> bytes:
    """The `top` table `best_target` reads: 256 bytes with a 1 at each gift
    id whose value equals the row maximum, `values[order[0]]`, when two or
    more gifts share it; else empty, since a lone top gift is the walk's
    first visit anyway. `values` and `order` are as `best_target` takes
    them; gift ids must fit a byte."""
    value = values[order[0]]
    if len(order) < 2 or values[order[1]] != value:
        return b""
    table = bytearray(256)
    for g in order:
        if values[g] != value:
            break
        table[g] = 1
    return bytes(table)


# A weighted open draws in C once more than this many gifts are wrapped; below
# it the Python loop is cheaper. Measured per call on a 2-vCPU Xeon VM, the two
# cost the same at 40-50 gifts for n = 65-200 and about 130 at n = 1000, and
# FULL games at n = 100-1000 ran no faster with 32 than with 64.
C_DRAW_ABOVE = 64


def choose_open_gift(pool: Sequence[int], weights: Optional[Sequence[float]],
                     rng, weight_row: Optional[np.ndarray] = None) -> int:
    """Pick a wrapped gift from `pool`: uniform when `weights` is None, else
    by the selection weight indexed by gift id. `rng` is a numpy Generator
    or play's draws (`harness._Draws`): either returns the same numbers
    from the same stream, so the gift does not depend on which.

    The weighted draw takes one `rng.random()`, scales it by the pool's
    total weight, and returns the first gift, in `pool` order, whose running
    sum exceeds it; when roundoff leaves none, the pool's last gift. `pool`
    is ascending, as `GameState.wrapped` keeps it.

    `weight_row`, when given, is a float64 copy of `weights` that reads 0.0
    at every id outside `pool`, id 0 included. Above `C_DRAW_ABOVE` gifts
    the draw runs in C over it: `add.accumulate` adds left to right from
    index 0, so after each added 0.0 (`x + 0.0 == x`) its prefix at a pool
    gift is the loop's running sum there, bit for bit, and its last entry
    the loop's total; `searchsorted(..., "right")` finds the first prefix
    above `r`, which can only sit at a gift of positive weight. The gift,
    the draw and every float are the loop's.
    """
    assert pool, "no wrapped gift available at a decision point"
    if weights is None:
        return pool[int(rng.integers(0, len(pool)))]
    if weight_row is not None and len(pool) > C_DRAW_ABOVE:
        prefix = np.add.accumulate(weight_row)
        gift = int(prefix.searchsorted(rng.random() * prefix[-1], "right"))
        return gift if gift < len(prefix) else pool[-1]
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
           opened_mean: float, wrapped_mean: float, threshold: float,
           rng) -> Optional[int]:
    """Steal-or-open decision for one strategy at one decision point, given
    the `best_target` winner: the victim seat to steal from, or None to open.

    Each rule reads only its own inputs: MEAN_BASED reads `opened_mean`,
    THRESHOLD `threshold`, EXPECTED_VALUE `wrapped_mean`; whatever is passed
    for the rest is ignored. Only COIN_FLIP consumes randomness, one
    `rng.random()`, and only when a target exists; `rng` is a numpy
    Generator or play's draws (`harness._Draws`).
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
        # Opening a random wrapped gift nets the pool mean (the decider is
        # empty-handed); steal wins only when its net beats that.
        steal = net_utility > wrapped_mean
    else:
        raise ValueError(f"unknown strategy {kind!r}")
    return victim if steal else None
