"""Exact trajectory combinatorics.

A trajectory is a complete action sequence of one game, final swap excluded;
two trajectories differ if any action or any opened gift differs. Under the
standard rules the count factors per round: round k contributes A(k) action
patterns (chain structures) times the choice of wrapped gift, giving

    T(n) = n! * prod_{k=1..n} A(k),   A(k) = sum_{j=0..k-1} (k-1)!/j!

where A(k) is OEIS A000522 evaluated at k-1; equivalently A(1) = 1 and
A(k) = (k-1)*A(k-1) + 1, which is how it is computed here.

A finite lifetime steal cap L breaks the per-round independence;
`count_trajectories` then runs a round-by-round dynamic program over level
profiles (m_0..m_L), where m_i is the number of opened gifts stolen i times.
Gifts on one level are interchangeable, so the profile is a sufficient state.
A chain that takes k_i gifts from each level i < L can be ordered in
(sum k)! * prod C(m_i, k_i) ways; `count_chains` sums that over the choices
without enumerating the orders. It takes a whole round's profiles at once and
folds one level at a time across all of them, so profiles that meet merge
before the next level. It keys the fold by the profile alone, packed into one
integer with a digit per level, each digit as many bits as the round's largest
profile total needs, so any n fits. A key's ways are one vector over chain
lengths s, packed into one integer with a slot per length. Every level, level
0 included, folds the same way: taking no gift leaves a key as it is, so each
level starts from a copy of the dict, and taking k >= 1 gifts shifts the
vector k slots and scales it by C(m_i, k). The orderings are applied once per
result profile, as sum_s ways_s * s!, over the live slots alone: those from
the vector's lowest set bit to its highest.

Everything returns exact Python integers and keeps no state between calls;
`brute_force_count` is a deliberately naive enumeration oracle for
cross-checking both routes at small n.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb, factorial
from operator import lshift, mul
from typing import Iterator

from .engine import StealLimits
from .errors import ConfigurationError, require_int, require_type

UNLIMITED = 0  # lifetime sentinel, matching the engine's StealLimits encoding

Profile = tuple  # (m_0..m_L): opened gifts per lifetime steal count


def _action_counts(n: int) -> Iterator[int]:
    """A(1), ..., A(n) by the recurrence A(k) = (k-1)*A(k-1) + 1."""
    a = 1
    for k in range(1, n + 1):
        yield a
        a = k * a + 1


def _tree_product(factors: list[int]) -> int:
    """Product by pairwise rounds, so big factors meet big factors."""
    while len(factors) > 1:
        pairs = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = pairs + factors[2 * len(pairs):]
    return factors[0]


def round_action_count(k: int) -> int:
    """A(k): action patterns in round k (chain structures, gift choice aside)."""
    require_int("round index", k, 1)
    *_, a = _action_counts(k)
    return a


def count_chains(weighted: tuple[tuple[Profile, int], ...],
                 lifetime: int) -> dict[Profile, int]:
    """Count every stealing chain, the empty one included, from each of a
    round's weighted level profiles.

    `weighted` holds (profile, ways) pairs, each profile (m_0..m_lifetime);
    gifts on levels below `lifetime` (at least 1) are stealable. A chain
    steals distinct gifts (a stolen gift is chain-locked until the round's
    open), moving each up one level. The result maps each profile after a
    chain's steals to the sum, over the pairs, of `ways` times the number of
    ordered chains from that pair's profile reaching it; the empty chain
    leaves a profile as it is, once.

    Levels are folded from the top down, so a gift moved up onto a level
    already folded is never taken twice, and each level is folded across all
    the profiles at once, so profiles that meet merge before the next level.
    A profile is one integer key with a digit of `width` bits per level, so
    taking k gifts from a level is `key + k * up` and reading m_i is a shift
    and a mask; no digit exceeds the largest profile total, which `width`
    holds. A key's value is its ways by chain length s, one `slot`-bit slot
    per s in one integer, so the same k gifts shift the value k slots and
    scale it by C(m_i, k). Each level's choices multiply the round's total
    ways by at most 2^m_i, so no slot overflows. Taking no gift (k = 0)
    leaves every key and value as it is, so a level's fold starts from a
    copy of the dict and adds only k = 1..m_i. Level 0 folds like every
    other level; once all are folded, a result profile's ordered chains are
    sum_s ways_s * s!, the dot product of its slots with the factorials. Only
    the slots from the value's lowest set bit to its highest are read: a
    single profile reaches each result at one chain length, so reading every
    slot would copy a long vector once per slot for one nonzero term.

    A profile that is not a tuple of `lifetime + 1` ints >= 0, or ways that
    are not an int >= 0, is refused before any work.
    """
    require_int("lifetime", lifetime, 1)
    for pair in weighted:
        profile, ways = pair
        if (type(profile) is not tuple or len(profile) != lifetime + 1
                or not all(type(m) is int and m >= 0
                           for m in (ways, *profile))):
            raise ConfigurationError(
                f"a weighted profile must pair a tuple of {lifetime + 1} "
                f"ints >= 0 with an int >= 0, got {pair!r}")
    top = max((sum(profile) for profile, _ in weighted), default=0)
    width = max(top.bit_length(), 1)
    mask = (1 << width) - 1
    shifts = range(0, width * (lifetime + 1), width)  # m_i's digit
    # C(m, k) for k = 1..m: taking no gift is the copy that starts each fold.
    binomials = [[comb(m, k) for k in range(1, m + 1)] for m in range(top + 1)]
    partial = defaultdict(int)  # profile key -> ways by chain length, packed
    for profile, ways in weighted:
        partial[sum(map(lshift, profile, shifts))] += ways
    slot = max(sum(partial.values()) << top, 1).bit_length()
    lengths = range(slot, (top + 1) * slot, slot)  # k gifts: k slots up
    for shift in reversed(shifts[:-1]):  # levels lifetime-1 .. 0
        up = (1 << (shift + width)) - (1 << shift)  # one gift to the next level
        moves = range(up, (top + 1) * up, up)
        folded = defaultdict(int, partial)
        for key, ways in partial.items():
            for move, c, longer in zip(moves, binomials[key >> shift & mask],
                                       lengths):
                folded[key + move] += ways * c << longer
        partial = folded
    full = (1 << slot) - 1
    factorials = [factorial(s) for s in range(top + 1)]
    counts = {}
    for key, packed in partial.items():
        # Only the slots from the lowest set bit to the highest are live; a
        # zero vector (a weight of 0) has no set bit and reads nothing.
        low = max((packed & -packed).bit_length() - 1, 0) // slot
        counts[tuple([key >> shift & mask for shift in shifts])] = sum(map(
            mul, [packed >> at & full
                  for at in range(low * slot, packed.bit_length(), slot)],
            factorials[low:]))
    return counts


def count_trajectories(n: int, lifetime: int = UNLIMITED) -> int:
    """Exact trajectory count under a lifetime steal cap (0 = unlimited).

    The unlimited branch is the closed form T(n) = n! * prod A(k). Otherwise
    a round-by-round DP over level profiles: `count_chains` takes a round's
    reachable profiles through every chain, the empty one included, then the
    opened gift is added on level 0. The final multiplication by n! restores
    which physical gift was opened each round.
    """
    require_int("player count", n, 1)
    require_int("lifetime", lifetime, 0)
    if lifetime == UNLIMITED:
        return _tree_product([factorial(n), *_action_counts(n)])
    # A gift opened in round k can be stolen at most once in each later
    # round, so no cap above n - 1 binds; n - 1 itself still runs the DP.
    lifetime = min(lifetime, n - 1)
    states: dict[Profile, int] = {(1,) + (0,) * lifetime: 1}  # after round 1
    for _ in range(2, n + 1):
        chained = count_chains(tuple(states.items()), lifetime)
        states = {(after[0] + 1,) + after[1:]: ways
                  for after, ways in chained.items()}
    return factorial(n) * sum(states.values())


_BRUTE_FORCE_MAX = 6


def brute_force_count(n: int, limits: StealLimits) -> int:
    """Enumeration oracle: walk every legal action sequence, rounds 1..n.

    Chains are enumerated steal by steal (chain lock, per-round cap, and
    lifetime cap each checked per victim); each open multiplies by the number
    of wrapped gifts available at that moment, since fresh gifts are
    interchangeable until stolen. Knows nothing of the closed form or the
    profile DP. Guarded to n <= 6 against combinatorial explosion.
    """
    require_int("player count", n, 1)
    if n > _BRUTE_FORCE_MAX:
        raise ConfigurationError(f"player count must be <= {_BRUTE_FORCE_MAX} "
                                 f"for brute-force enumeration, got {n}")
    require_type("limits", limits, StealLimits)
    per_round, lifetime = limits.per_round, limits.lifetime
    totals: list[int] = []  # lifetime steal count per opened gift, in open order

    def play_round(k: int) -> int:
        if k > n:
            return 1
        open_choices = n - k + 1
        round_counts = [0] * (k - 1)
        locked: set[int] = set()

        def act() -> int:
            totals.append(0)
            ways = open_choices * play_round(k + 1)
            totals.pop()
            for i in range(k - 1):
                if i in locked:
                    continue
                if per_round and round_counts[i] >= per_round:
                    continue
                if lifetime and totals[i] >= lifetime:
                    continue
                totals[i] += 1
                round_counts[i] += 1
                locked.add(i)
                ways += act()
                locked.discard(i)
                round_counts[i] -= 1
                totals[i] -= 1
            return ways

        return act()

    return play_round(1)
