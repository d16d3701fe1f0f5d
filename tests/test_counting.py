"""Exact combinatorics: closed form, level-profile DP, and the enumeration oracle.

Trajectory counts are cross-validated in-repo by independent routes: closed form,
level-profile DP (under a cap that never binds), and brute-force enumeration
(see also the engine-driven enumeration in test_engine.py). The capped counts
are frozen in a golden table and checked against the oracle for n <= 6.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giftex import counting
from giftex.cli import main
from giftex.counting import (UNLIMITED, brute_force_count, count_chains,
                             count_trajectories, round_action_count)
from giftex.engine import StealLimits
from giftex.errors import ConfigurationError
from reference import naive_count_chains

A_GOLDEN = (1, 2, 5, 16, 65, 326, 1957, 13700)
# Verified closed-form values; the brute-force oracle reproduces every entry
# up to n=6 (n<=5 below, n=6 in the slow acceptance pass).
T_GOLDEN = {1: 1, 2: 4, 3: 60, 4: 3840, 5: 1_248_000, 6: 2_441_088_000}
# count_trajectories(n, L) for L = 1..4, frozen from the multiset DP that the
# level-profile DP replaced; n <= 6 is also reproduced by the oracle below.
CAPPED_GOLDEN = {
    1: (1, 1, 1, 1),
    2: (4, 4, 4, 4),
    3: (42, 60, 60, 60),
    4: (888, 3048, 3840, 3840),
    5: (31920, 421800, 1053960, 1248000),
    6: (1750320, 128938320, 1025154720, 2137221360),
    7: (136115280, 74641185360, 2791025984880, 16175143756800),
    8: (14254007040, 73432344222720, 17601854437560960,
        421318899882760320),
    9: (1934091250560, 113551613801256960, 224015038717430096640,
        30494629054102379886720),
    10: (330078373228800, 260323210448758598400,
         5199621279867613122048000, 5220389622591883050774624000),
}


def test_round_action_count_golden():
    assert tuple(round_action_count(k) for k in range(1, 9)) == A_GOLDEN


def test_round_action_count_rejects_zero():
    with pytest.raises(ValueError):
        round_action_count(0)


@given(k=st.integers(1, 40))
def test_round_action_count_recurrence(k):
    """Property: A(k) equals its defining sum over (k-1)!/j!, which the
    recurrence it is computed by does not use."""
    assert round_action_count(k) == sum(
        math.factorial(k - 1) // math.factorial(j) for j in range(k))


def test_asymptotic_ratio_to_factorial_times_e():
    for k in range(10, 16):
        ratio = round_action_count(k) / (math.factorial(k - 1) * math.e)
        assert 0.99 < ratio < 1.01


def test_trajectory_count_golden():
    for n, want in T_GOLDEN.items():
        assert count_trajectories(n) == want


def test_trajectory_count_is_divisible_by_n_factorial():
    for n in range(1, 12):
        assert count_trajectories(n) % math.factorial(n) == 0


def test_trajectory_count_with_swap(capsys):
    # The n final-swap choices multiply the closed form; the CLI applies them.
    for n, expected in ((1, 1), (3, 180), (5, 6_240_000)):
        assert main(["count", "--players", str(n), "--with-swap"]) == 0
        assert capsys.readouterr().out.strip() == str(expected)
        assert expected == n * count_trajectories(n)


# -- level-profile DP ---------------------------------------------------------

def test_dp_unlimited_matches_closed_form():
    # The unlimited branch is the closed form; rebuild it from A(k) here.
    for n in range(1, 9):
        assert count_trajectories(n, UNLIMITED) == math.factorial(n) * \
            math.prod(round_action_count(k) for k in range(1, n + 1))


def test_dp_with_nonbinding_lifetime_matches_closed_form():
    # No gift can be stolen more than n-1 times, so lifetime >= n-1 never binds.
    # The DP's work grows fast with the cap: the round folds make 0.10M
    # updates over the rounds of n = 10 and 0.40M over those of n = 11, each
    # a shifted, scaled ways vector; taking no gift from a level is the dict
    # copy the level starts from, not an update.
    for n in range(2, 11):
        assert count_trajectories(n, n - 1) == count_trajectories(n)


def test_dp_clamps_a_cap_above_n_minus_one(monkeypatch):
    # A cap above n - 1 counts as n - 1: every profile the DP builds has n
    # levels, however large the cap.
    lengths = []

    def recording(weighted, lifetime):
        lengths.extend(len(profile) for profile, _ in weighted)
        return chains(weighted, lifetime)

    chains = counting.count_chains
    monkeypatch.setattr(counting, "count_chains", recording)
    assert count_trajectories(5, 50) == count_trajectories(5)
    assert lengths and max(lengths) <= 5


def test_dp_capped_golden():
    for n, row in CAPPED_GOLDEN.items():
        assert tuple(count_trajectories(n, L) for L in range(1, 5)) == row, n


# count_trajectories(n, L) past n = 10, frozen from the fold that keyed each
# (profile, chain length) pair apart; (18, 3) is the benchmark's capped count.
CAPPED_PINS = {
    (18, 3): 1523121510104126517011825482064238838381042084678306850500362240000,
    (14, 4): 3226730385036227789051624718143208271346451479193600,
    (12, 5): 6467770280581696432192458838803514935782400,
    (40, 2): int(
        "1143941054632769555302477127786500771575337600826697017283727180577"
        "8515459777576285488199239906672327417844835354114989393999026379308"
        "502365337796214784000000000"),
}


@pytest.mark.parametrize(("n", "lifetime"), sorted(CAPPED_PINS))
def test_dp_capped_pins_past_ten(n, lifetime):
    assert count_trajectories(n, lifetime) == CAPPED_PINS[n, lifetime]


def test_dp_three_players_lifetime_one():
    # Hand-enumerated: 7 action-pattern ways times 3! = 42.
    assert count_trajectories(3, 1) == 42


def test_dp_matches_brute_force_small_cases():
    for n in range(1, 7):
        for lifetime in (1, 2, 3):
            assert count_trajectories(n, lifetime) == \
                brute_force_count(n, StealLimits(1, lifetime))


def test_dp_monotone_in_lifetime():
    for n in range(2, 7):
        counts = [count_trajectories(n, L) for L in range(1, 6)]
        counts.append(count_trajectories(n, UNLIMITED))
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_dp_rejects_bad_arguments():
    with pytest.raises(ValueError):
        count_trajectories(0)
    with pytest.raises(ValueError):
        count_trajectories(3, -1)


@pytest.mark.parametrize("call", [
    lambda: count_trajectories(5, 2.5),  # used to count lifetime 3
    lambda: count_trajectories(5.0, 2),  # used to escape as a TypeError
    lambda: count_trajectories(True),    # used to return 1
    lambda: count_trajectories(4, True),
    lambda: count_trajectories(5.0),
    lambda: round_action_count(3.0),
    lambda: brute_force_count(3.0, StealLimits(1, 0)),
], ids=["lifetime-float", "n-float", "n-bool", "lifetime-bool",
        "closed-form", "round-index", "oracle"])
def test_counting_rejects_non_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_counting_keeps_no_hidden_state():
    first = count_trajectories(14, 3)
    assert count_trajectories(14, 3) == first
    containers = [name for name, value in vars(counting).items()
                  if not name.startswith("__")
                  and isinstance(value, (dict, list, set))]
    assert containers == []


# -- chain enumeration ------------------------------------------------------------

def nonempty_chains(profile, lifetime):
    """The chains from one profile, of weight 1, less the empty chain. Every
    steal moves a gift up a level, so only the empty chain keeps the
    profile, and it does so once."""
    got = count_chains(((profile, 1),), lifetime)
    assert got.pop(profile) == 1
    return got


def test_count_chains_empty_targets():
    # The only opened gift sits at the cap, so no chain can start.
    assert nonempty_chains((0, 1), 1) == {}


def test_count_chains_two_fresh_gifts():
    # Chains over two fresh gifts: two of length 1 and two of length 2.
    got = nonempty_chains((2, 0, 0), 2)
    assert got == {(1, 1, 0): 2, (0, 2, 0): 2}
    assert sum(got.values()) == round_action_count(3) - 1


def test_count_chains_single_target():
    assert nonempty_chains((1, 0), 1) == {(0, 1): 1}


def test_count_chains_respects_multiplicity():
    # length-1 chains: 2 ways to steal a fresh gift; length-2: 2 ordered
    # pairs; the gift already at the cap is never a target.
    assert nonempty_chains((2, 1), 1) == {(1, 2): 2, (0, 3): 2}


@given(lifetime=st.integers(1, 4), data=st.data())
@settings(max_examples=50, deadline=None)
def test_count_chains_total_is_ordered_selections(lifetime, data):
    """Property: with M stealable gifts, the chains are the nonempty ordered
    selections of distinct gifts, sum_{s=1..M} M!/(M-s)! = A(M+1) - 1."""
    profile = tuple(data.draw(st.lists(st.integers(0, 3), min_size=lifetime + 1,
                                       max_size=lifetime + 1)))
    m = sum(profile[:lifetime])
    got = nonempty_chains(profile, lifetime)
    want = sum(math.factorial(m) // math.factorial(m - s)
               for s in range(1, m + 1))
    assert sum(got.values()) == want == round_action_count(m + 1) - 1
    assert all(sum(after) == sum(profile) for after in got)


def profiles(lifetime, most):
    """Every level profile (m_0..m_lifetime) holding at most `most` gifts."""
    return [p for p in itertools.product(range(most + 1), repeat=lifetime + 1)
            if sum(p) <= most]


def test_count_chains_matches_the_naive_enumeration():
    """Each profile of at most 7 gifts, at lifetime 1 to 4, reaches the
    profiles the per-profile enumeration lists, with the same chain counts,
    plus itself once by the empty chain."""
    for lifetime in range(1, 5):
        for profile in profiles(lifetime, 7):
            want = naive_count_chains(profile, lifetime)
            want[profile] = 1
            assert count_chains(((profile, 1),), lifetime) == want, profile


def test_count_chains_matches_the_naive_enumeration_at_lifetimes_five_and_six():
    """As above, for each profile of at most 5 gifts at lifetime 5 and 6,
    where chains of several lengths cross up to five levels above level 0."""
    for lifetime in (5, 6):
        for profile in profiles(lifetime, 5):
            want = naive_count_chains(profile, lifetime)
            want[profile] = 1
            assert count_chains(((profile, 1),), lifetime) == want, profile


def test_count_chains_sums_weighted_profiles():
    """A round's profiles folded together, with big and repeated weights and
    totals of 0 to 8 gifts (so the fold's digits are wider than those of
    most one-profile calls), count what the profiles count one at a time,
    times their weights."""
    for lifetime in (1, 2, 3):
        weighted = [(p, 3 ** i + 2 ** 70)
                    for i, p in enumerate(profiles(lifetime, 8))]
        weighted += weighted[::3]  # a profile may come more than once
        want = {}
        for profile, ways in weighted:
            for after, chains in count_chains(((profile, 1),), lifetime).items():
                want[after] = want.get(after, 0) + ways * chains
        assert count_chains(tuple(weighted), lifetime) == want


def test_count_chains_sums_a_profile_reached_at_several_chain_lengths():
    """Chains from five profiles meet at (1, 1, 2, 1) with lengths 0 to 3,
    and go on from there through level 0. A steal raises one gift a level,
    so a chain from a to b is sum_i i * (b_i - a_i) long, and each length
    keeps its own orderings through the merge."""
    lifetime = 3
    weighted = [((1, 1, 2, 1), 2 ** 70 + 1), ((1, 1, 3, 0), 2 ** 70 + 3),
                ((1, 2, 2, 0), 5), ((1, 3, 1, 0), 7), ((2, 0, 2, 1), 11)]
    want, lengths = {}, {}
    for profile, ways in weighted:
        chains = naive_count_chains(profile, lifetime)
        chains[profile] = 1
        for after, count in chains.items():
            want[after] = want.get(after, 0) + ways * count
            lengths.setdefault(after, set()).add(
                sum(i * (b - a) for i, (a, b) in enumerate(zip(profile, after))))
    assert lengths[1, 1, 2, 1] == {0, 1, 2, 3}
    assert sum(len(seen) >= 3 for seen in lengths.values()) > 10
    assert count_chains(tuple(weighted), lifetime) == want


def test_count_chains_across_the_digit_width():
    """Profiles whose totals need 8 or 9 bits a digit, or more than a byte:
    the single-level counts are sum_k C(m, k) * k! over k gifts taken, and
    two levels match the naive enumeration."""
    for m in (255, 256, 300):
        got = count_chains((((m, 0), 1),), 1)
        assert got == {(m - k, k): math.comb(m, k) * math.factorial(k)
                       for k in range(m + 1)}
    for profile in ((128, 127, 0), (128, 128, 0), (100, 100, 100)):
        want = naive_count_chains(profile, 2)
        want[profile] = 1
        assert count_chains(((profile, 1),), 2) == want, profile


def test_count_chains_of_zero_weight_profiles_are_zero():
    """A profile of weight 0 reaches what it reaches 0 times, and a round
    with no profiles reaches nothing."""
    assert count_chains((((2, 0), 0),), 1) == {(2, 0): 0, (1, 1): 0, (0, 2): 0}
    assert count_chains((), 1) == {}


@pytest.mark.parametrize("weighted", [
    (((1, 0, 5), 1),),  # one level too many, not dropped
    (((1,), 1),),  # one level too few, not padded
    (((-1, 2), 1),),
    (((1, 0), -3),),
    (((1.0, 1), 1),),
    (((True, 0), 1),),
    (((1, 0), 1.0),),
    (([1, 0], 1),),
    (((1, 0), 1), ((2, 0), 1), ((0, 1), -1)),  # a bad pair after good ones
])
def test_count_chains_refuses_a_malformed_profile_or_weight(weighted):
    with pytest.raises(ConfigurationError, match="weighted profile"):
        count_chains(weighted, 1)


# -- brute force oracle --------------------------------------------------------------

def test_brute_force_standard_rules_golden():
    assert brute_force_count(2, StealLimits(1, 0)) == 4
    assert brute_force_count(3, StealLimits(1, 0)) == 60
    assert brute_force_count(4, StealLimits(1, 0)) == 3840


def test_brute_force_guard():
    with pytest.raises(ConfigurationError,
                       match=r"^player count must be <= 6 for brute-force "
                             r"enumeration, got 7$"):
        brute_force_count(7, StealLimits(1, 0))
    with pytest.raises(ConfigurationError, match="^player count must be >= 1"):
        brute_force_count(0, StealLimits(1, 0))


def test_per_round_limit_never_changes_the_count():
    # One chain per round plus mandatory chain locking make the per-round cap
    # inert for every setting.
    for n in range(1, 5):
        reference = brute_force_count(n, StealLimits(0, 0))
        for per_round in (1, 2, 3):
            assert brute_force_count(n, StealLimits(per_round, 0)) == reference


def test_brute_force_lifetime_three_players():
    assert brute_force_count(3, StealLimits(1, 1)) == 42


@given(n=st.integers(1, 4), lifetime=st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_oracle_and_dp_agree_everywhere_small(n, lifetime):
    """Property: the DP and the dumb enumeration agree on every small case."""
    assert count_trajectories(n, lifetime) == \
        brute_force_count(n, StealLimits(1, lifetime))
