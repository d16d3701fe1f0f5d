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
without enumerating the orders.

Everything returns exact Python integers and keeps no state between calls;
`brute_force_count` is a deliberately naive enumeration oracle for
cross-checking both routes at small n.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterator

from .engine import StealLimits
from .errors import ConfigurationError, require_int

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


def count_chains(profile: Profile, lifetime: int) -> dict[Profile, int]:
    """Count every nonempty stealing chain from a level profile.

    `profile` is (m_0..m_lifetime); gifts on levels below `lifetime` are
    stealable. A chain steals distinct gifts (a stolen gift is chain-locked
    until the round's open), moving each up one level. The result maps the
    profile after the chain's steals to the number of ordered chains reaching
    it. Levels are folded from the top down, so a gift moved up onto a level
    already folded is never taken twice; the (chain length)! orderings are
    applied once at the end.
    """
    # Distinct choices of the k_i reach distinct profiles: nothing to merge.
    partial = [(profile, 0, 1)]  # (profile so far, chain length, ways)
    for level in range(lifetime - 1, -1, -1):
        folded = []
        for counts, length, ways in partial:
            folded.append((counts, length, ways))  # take none from this level
            available = counts[level]
            head, above, tail = counts[:level], counts[level + 1], counts[level + 2:]
            for k in range(1, available + 1):
                folded.append((head + (available - k, above + k) + tail,
                               length + k, ways * comb(available, k)))
        partial = folded
    return {counts: ways * factorial(length)
            for counts, length, ways in partial if length}


def count_trajectories(n: int, lifetime: int = UNLIMITED) -> int:
    """Exact trajectory count under a lifetime steal cap (0 = unlimited).

    The unlimited branch is the closed form T(n) = n! * prod A(k). Otherwise
    a round-by-round DP over level profiles: from each reachable profile,
    either open immediately or run any chain from `count_chains`, then add
    the opened gift on level 0. The final multiplication by n! restores which
    physical gift was opened each round.
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
        chained: dict[Profile, int] = {}  # profiles before the round's open
        for counts, ways in states.items():
            chains = count_chains(counts, lifetime)
            chains[counts] = 1  # the empty chain: open at once
            for after, chain_ways in chains.items():
                chained[after] = chained.get(after, 0) + ways * chain_ways
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
    if not isinstance(limits, StealLimits):
        raise ConfigurationError(f"limits must be a StealLimits, got {limits!r}")
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
