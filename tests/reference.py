"""Helpers that several test modules share; pytest does not collect this
module, since its name does not start with ``test_``."""

from math import comb, factorial

from giftex.engine import Steal, Swap, replay
from giftex.strategies import best_target


def by_value(values):
    """Gift ids by descending value: the `order` `best_target` walks."""
    return sorted(range(1, len(values)), key=values.__getitem__, reverse=True)


def lone_targets(state, actor, values, social, params):
    """The (victim seat, net utility, gift value) `best_target` reports for
    each opened gift when its walk visits that gift alone, in opening order;
    a gift the actor may not take reports nothing."""
    out = []
    for gift in state.opened_order:
        best = best_target(state, actor, values, [gift], social, params)
        if best is not None:
            out.append(best)
    return out


def check_game(result):
    """A finished game's invariants: final ownership is a bijection, no chain
    outgrows n - 1, the steal count sums the chains, no gift is stolen past
    its caps (recounted from the log), and the log replays to a concluded
    game with the same final ownership."""
    n, limits = result.n, result.limits
    owned = sorted(result.final_ownership.values())
    assert owned == list(range(1, n + 1)), "final ownership must be a bijection"
    assert all(c <= n - 1 for c in result.chain_lengths)
    assert result.steal_count == sum(result.chain_lengths)
    round_counts = {}
    total_counts = {}
    current_round = 0
    for _, action, k, _, g in result.trajectory:
        if type(action) is Swap:
            continue
        if k != current_round:
            current_round = k
            round_counts = {}
        if type(action) is Steal:
            round_counts[g] = round_counts.get(g, 0) + 1
            total_counts[g] = total_counts.get(g, 0) + 1
            if limits.per_round:
                assert round_counts[g] <= limits.per_round
            if limits.lifetime:
                assert total_counts[g] <= limits.lifetime
    end = replay(n, limits, result.trajectory)
    assert {p: end.ownership[p] for p in range(1, n + 1)} == result.final_ownership
    assert end.concluded


def naive_count_chains(profile, lifetime):
    """Every nonempty stealing chain from one level profile (m_0..m_lifetime),
    by profile after the chain: each choice of k_i gifts per stealable level
    is its own entry, worth (sum k)! * prod C(m_i, k_i) orderings. Levels are
    taken from the top down, so a gift moved up is never taken twice."""
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
