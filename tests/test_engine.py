"""Engine mechanics: transitions, chains, limits, rounds, replay, determinism."""

import copy
import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giftex.engine import (STANDARD_LIMITS, ActionRecord, GameState, Open, Steal,
                           StealLimits, Swap, replay, run_game)
from giftex.errors import ConfigurationError, IllegalMoveError, PhaseError
from giftex.strategies import best_target
from reference import by_value, check_game


def open_lowest(state, actor, rng):
    return Open(state.wrapped[0])


def greedy_steal(state, actor, rng):
    """Steal from the lowest seat that can be robbed, else open the lowest
    wrapped gift (`legal_actions` lists opens by id, then steals by seat)."""
    actions = state.legal_actions(actor)
    steals = [a for a in actions if type(a) is Steal]
    return steals[0] if steals else actions[0]


def scan_takes(state, actor, gift):
    """Whether `best_target` steals `gift` for `actor` when only that gift is
    worth anything to it."""
    values = [0.0] * (state.n + 1)
    values[gift] = 1.0
    best = best_target(state, actor, values, by_value(values), None, None)
    return best is not None and best[0] == state.holder[gift]


def random_policy(state, actor, rng):
    actions = state.legal_actions(actor)
    return actions[int(rng.integers(0, len(actions)))]


# -- initial state ----------------------------------------------------------

def test_initial_state_two_players():
    s = GameState(2)
    assert s.wrapped == [1, 2]
    assert all(s.ownership[p] is None for p in (1, 2))
    assert s.round == 1 and s.to_act == 1


def test_initial_state_29_players():
    s = GameState(29, StealLimits(1, 0))
    assert len(s.wrapped) == 29
    assert s.round == 1
    assert sum(s.total_steals) == 0 and s.chain_locked == set()
    values = [0.0] * 30
    assert best_target(s, 1, values, by_value(values), None, None) is None
    assert s.takeable == [False] * 30


def test_initial_state_rejects_empty_game():
    for n in (0, -1, 2.5, True, "3"):
        with pytest.raises(ConfigurationError):
            GameState(n)


def test_bad_limits_rejected():
    for per_round, lifetime in ((-1, 0), (1.5, 0.5), (True, 0), (1, "2")):
        with pytest.raises(ConfigurationError):
            StealLimits(per_round, lifetime)


# -- stealability -----------------------------------------------------------

def test_chain_locked_gift_not_stealable():
    s = GameState(3)
    s.apply_open(1, 1)
    s.apply_open(2, 2)
    s.apply_steal(3, 1)
    assert s.chain_locked == {1}
    assert not s.stealable(1)


def steal_then_open(per_round):
    """Round 3 of 4: seat 3 steals gift 1, seat 1 opens gift 3."""
    s = GameState(4, StealLimits(per_round, 0))
    s.apply_open(1, 1)
    s.apply_open(2, 2)
    s.apply_steal(3, 1)
    return s


def test_per_round_cap_blocks():
    # The chain lock is the per-round cap: a stolen gift stays locked until
    # the open that ends the round, whatever per_round says.
    for per_round in (0, 1, 2):
        s = steal_then_open(per_round)
        assert not s.stealable(1)
        assert not scan_takes(s, 1, 1) and not scan_takes(s, 2, 1)
        with pytest.raises(IllegalMoveError):
            s.apply_steal(1, 3)
        s.apply_open(1, 3)
        assert s.stealable(1) and scan_takes(s, 4, 1)


def pass_gift_one(limits, steals):
    """Seat 1 opens gift 1; in each of the next `steals` rounds the round's
    seat steals gift 1 from its holder, who opens the lowest wrapped gift.
    The state is left just after the last steal, before its open."""
    s = GameState(steals + 2, limits)
    s.apply_open(1, 1)
    for k in range(2, steals + 2):
        victim = s.holder[1]
        s.apply_steal(k, victim)
        if k < steals + 1:
            s.apply_open(victim, s.wrapped[0])
    return s


def test_lifetime_cap_blocks():
    s = pass_gift_one(StealLimits(1, 3), 3)
    s.apply_open(s.to_act, s.wrapped[0])  # the chain lock lifts
    assert s.total_steals[1] == 3
    assert not s.stealable(1)


def test_zero_means_unlimited():
    s = pass_gift_one(StealLimits(0, 0), 4)
    assert s.total_steals[1] == 4
    assert not s.stealable(1)  # a zero cap never lifts the chain lock
    s.apply_open(s.to_act, s.wrapped[0])
    assert s.stealable(1)


# -- legal actions ----------------------------------------------------------

def test_round_one_open_only():
    s = GameState(4)
    actions = s.legal_actions(1)
    assert actions == [Open(1), Open(2), Open(3), Open(4)]


def test_round_three_two_owners():
    # Two opened gifts, nothing locked: n-2 opens plus 2 steals for seat 3.
    n = 6
    s = GameState(n)
    s.apply_open(1, 1)
    s.apply_open(2, 2)
    assert s.round == 3
    actions = s.legal_actions(3)
    opens = [a for a in actions if isinstance(a, Open)]
    steals = [a for a in actions if isinstance(a, Steal)]
    assert len(opens) == n - 2
    assert sorted(a.victim for a in steals) == [1, 2]


def test_victim_cannot_steal_back_mid_chain():
    s = GameState(3)
    s.apply_open(1, 1)
    s.apply_open(2, 2)
    s.apply_steal(3, 1)  # seat 3 takes gift 1; seat 1 displaced
    actions = s.legal_actions(1)
    # gift 1 is chain-locked, so seat 1 may only open or steal from seat 2
    assert Steal(3) not in actions
    assert Steal(2) in actions
    assert Open(3) in actions


def test_legal_actions_after_game_is_phase_error():
    s = GameState(1)
    s.apply_open(1, 1)
    with pytest.raises(PhaseError):
        s.legal_actions(1)


# -- open / steal transitions ----------------------------------------------

def test_open_terminates_chain_and_clears_locks():
    s = GameState(4)
    s.apply_open(1, 1)
    s.apply_open(2, 2)
    s.apply_steal(3, 2)
    assert s.chain_locked == {2} and s.to_act == 2
    s.apply_open(2, 3)
    assert s.chain_locked == set() and s.to_act == 4
    assert s.round == 4
    assert s.stealable(2) and scan_takes(s, 4, 2)


def test_open_already_opened_is_illegal():
    s = GameState(2)
    s.apply_open(1, 1)
    with pytest.raises(IllegalMoveError):
        s.apply_open(2, 1)


def test_terminal_open_enters_swap_phase():
    s = GameState(2)
    s.apply_open(1, 1)
    s.apply_open(2, 2)
    assert s.to_act is None and not s.concluded


def test_chain_example_bookkeeping():
    # Round 7 of a 10-player game: seat 4 holds gift 3 and seat 2 gift 5,
    # then a length-2 chain and an open.
    s = GameState(10)
    for seat, gift in ((1, 1), (2, 5), (3, 2), (4, 3), (5, 4), (6, 7)):
        s.apply_open(seat, gift)
    assert s.round == 7
    s.apply_steal(7, 4)
    assert s.ownership[7] == 3 and s.ownership[4] is None
    assert s.chain_locked == {3} and s.total_steals[3] == 1
    assert not s.stealable(3) and not scan_takes(s, 4, 3)
    assert s.to_act == 4
    s.apply_steal(4, 2)
    assert s.chain_locked == {3, 5}
    with pytest.raises(IllegalMoveError):
        s.apply_steal(2, 7)  # gift 3 chain-locked
    s.apply_open(2, 6)
    assert s.chain_locked == set()
    assert s.round == 8
    assert s.stealable(3) and s.total_steals[3] == 1
    assert s.total_steals[5] == 1


def test_steal_from_empty_handed_victim_is_illegal():
    s = GameState(3)
    s.apply_open(1, 1)
    with pytest.raises(IllegalMoveError):
        s.apply_steal(2, 3)


def fields(s):
    """What a refused move must leave as it was."""
    return (list(s.ownership), list(s.holder), list(s.takeable),
            bytes(s.offer), s.round, s.to_act)


def refused(s, error, move, *args):
    before = fields(s)
    with pytest.raises(error):
        move(s, *args)
    assert fields(s) == before


@pytest.mark.parametrize("seat", [0, -1, 5, True, 1.0, None, 2, 3, 4],
                         ids=repr)
def test_only_the_seat_to_act_moves(seat):
    """Mid-chain in round 3 of 4, seat 1 is to act: it may open gift 3 or 4
    or steal gift 2 from seat 2. Any other actor is refused, whether it is
    no seat, an id that only compares equal to 1, a seat holding a gift or
    an empty-handed seat out of turn, and the state is left as it was."""
    s = steal_then_open(1)
    assert s.to_act == 1 and s.legal_actions(1) == [Open(3), Open(4), Steal(2)]
    refused(s, IllegalMoveError, GameState.apply_open, seat, 3)
    refused(s, IllegalMoveError, GameState.apply_steal, seat, 2)
    s.apply_steal(1, 2)
    assert s.to_act == 2


def test_self_steal_is_refused():
    """The seat to act holds nothing, so stealing from itself is a steal
    from an empty-handed seat."""
    s = steal_then_open(1)
    refused(s, IllegalMoveError, GameState.apply_steal, 1, 1)


def test_no_open_or_steal_after_the_last_round():
    s = GameState(3)
    for k in (1, 2, 3):
        s.apply_open(k, k)
    assert s.to_act is None
    for actor in (1, 3, 4, None):
        refused(s, PhaseError, GameState.apply_open, actor, 1)
        refused(s, PhaseError, GameState.apply_steal, actor, 2)
    s.final_swap(2)
    refused(s, PhaseError, GameState.apply_open, 3, 1)


# -- final swap --------------------------------------------------------------

def play_all_open(n):
    return run_game(n, STANDARD_LIMITS, open_lowest)


def test_final_swap_none_keeps_ownership():
    s = GameState(2)
    s.apply_open(1, 1)
    s.apply_open(2, 2)
    before = list(s.ownership)
    s.final_swap(None)
    assert s.ownership == before and s.concluded


def test_final_swap_is_an_involution():
    s = GameState(3)
    for k in (1, 2, 3):
        s.apply_open(k, k)
    s.final_swap(3)
    assert s.ownership[1] == 3 and s.ownership[3] == 1
    # applying the exchange again restores the original assignment
    s.concluded = False
    s.final_swap(3)
    assert s.ownership[1] == 1 and s.ownership[3] == 3


def test_second_final_swap_is_phase_error():
    s = GameState(3)
    for k in (1, 2, 3):
        s.apply_open(k, k)
    s.final_swap(2)
    refused(s, PhaseError, GameState.final_swap, 3)
    refused(s, PhaseError, GameState.final_swap, None)
    assert s.ownership[1:] == [2, 1, 3] and s.concluded


def test_final_swap_before_round_n_is_phase_error():
    s = GameState(2)
    s.apply_open(1, 1)
    with pytest.raises(PhaseError):
        s.final_swap(None)


def test_final_swap_with_self_is_illegal():
    s = GameState(2)
    s.apply_open(1, 1)
    s.apply_open(2, 2)
    with pytest.raises(IllegalMoveError):
        s.final_swap(1)


# -- rounds and full games ---------------------------------------------------

def test_all_open_policy_yields_zero_chains():
    result = play_all_open(5)
    assert result.chain_lengths == (0, 0, 0, 0, 0)
    assert result.steal_count == 0


def test_single_player_game():
    result = run_game(1, STANDARD_LIMITS, open_lowest)
    assert result.final_ownership == {1: 1}
    assert result.steal_count == 0


def test_two_player_steal_trajectory():
    # Seat 2 steals, seat 1 forced to open: chain length 1 in round 2.
    result = run_game(2, STANDARD_LIMITS, greedy_steal)
    assert result.chain_lengths == (0, 1)
    kinds = [type(action) for _, action, *_ in result.trajectory]
    assert kinds == [Open, Steal, Open, Swap]


def test_round_three_chain_capped_at_two():
    result = run_game(3, STANDARD_LIMITS, greedy_steal)
    assert all(c <= 2 for c in result.chain_lengths)


def test_steal_count_equals_chain_sum():
    rng = np.random.default_rng(3)
    result = run_game(8, STANDARD_LIMITS, random_policy, rng=rng)
    assert result.steal_count == sum(result.chain_lengths)
    steals = sum(1 for _, action, *_ in result.trajectory
                 if type(action) is Steal)
    assert steals == result.steal_count


def test_chain_positions_increment():
    rng = np.random.default_rng(11)
    result = run_game(7, STANDARD_LIMITS, greedy_steal, rng=rng)
    by_round = {}
    for _, action, k, position, _ in result.trajectory:
        if type(action) is Swap:
            continue
        by_round.setdefault(k, []).append(position)
    for positions in by_round.values():
        assert positions == list(range(len(positions)))


def test_policy_illegal_action_fails_fast():
    def bad_policy(state, actor, rng):
        return Steal(actor + 1 if actor < state.n else 1)

    with pytest.raises(IllegalMoveError):
        run_game(3, STANDARD_LIMITS, bad_policy)


# -- replay and invariants ----------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_random_games_keep_invariants(seed):
    """Property: random play yields a bijection, bounded chains, exact replay."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    limits = StealLimits(int(rng.integers(0, 3)), int(rng.integers(0, 4)))
    result = run_game(n, limits, random_policy, rng=rng)
    check_game(result)


def test_replay_rejects_a_tampered_gift():
    """A record's gift must be what its actor received: the gift opened, the
    victim's gift before the steal, or seat 1's after the swap (None when
    the swap is declined). Changing any one of them fails the replay."""
    result = run_game(5, STANDARD_LIMITS, greedy_steal, swap=lambda st, rng: 2)
    assert {type(action) for _, action, *_ in result.trajectory} == {
        Open, Steal, Swap}
    replay(5, STANDARD_LIMITS, result.trajectory)
    for i, (*head, gift) in enumerate(result.trajectory):
        tampered = list(result.trajectory)
        tampered[i] = (*head, gift % 5 + 1)
        with pytest.raises(IllegalMoveError, match="names gift"):
            replay(5, STANDARD_LIMITS, tampered)
    declined = run_game(3, STANDARD_LIMITS, open_lowest)
    *rounds, (*head, gift) = declined.trajectory
    assert gift is None
    accepted = (*head, declined.final_ownership[1])
    with pytest.raises(IllegalMoveError, match="names gift"):
        replay(3, STANDARD_LIMITS, [*rounds, accepted])


def change(log, i, **fields):
    log[i] = ActionRecord._make(log[i])._replace(**fields)


def put(log, i, rec):
    log[i] = rec


MALFORMED = {"json-list-record": list,
             "four-tuple-record": lambda rec: rec[:4],
             "six-tuple-record": lambda rec: (*rec, None),
             "none-record": lambda rec: None}


@pytest.mark.parametrize("tamper", [
    lambda log: (change(log, 0, actor=2), change(log, 1, actor=1)),
    lambda log: change(log, 2, round=1),
    lambda log: change(log, 1, position_in_chain=9),
    lambda log: log.clear(),
    lambda log: log.pop(),
    lambda log: log.append(log[-1]),
    lambda log: log.insert(1, log[-1]),
    lambda log: log.insert(-1, log[0]),
    lambda log: change(log, 1, action=Steal(log[1][1].gift)),
    *(lambda log, make=make: put(log, 2, make(log[2]))
      for make in MALFORMED.values()),
], ids=["actors-of-two-rounds-swapped", "wrong-round", "wrong-position",
        "empty-log", "swap-dropped", "one-record-too-many", "swap-in-mid-log",
        "open-where-the-swap-is-due", "open-turned-steal", *MALFORMED])
def test_replay_rejects_a_log_no_game_writes(tamper):
    """Replay plays the log through the round loop, so every field of every
    record, the swap's place at the end and the log's length are checked."""
    result = run_game(4, STANDARD_LIMITS, open_lowest)
    log = list(result.trajectory)
    tamper(log)
    with pytest.raises(IllegalMoveError):
        replay(4, STANDARD_LIMITS, log)


@pytest.mark.parametrize("make", MALFORMED.values(), ids=MALFORMED)
def test_replay_names_a_record_that_is_not_a_5_tuple(make):
    """A JSON list, a tuple of the wrong length or None is refused by index
    before play, not with a TypeError or StopIteration from the comparison."""
    log = list(run_game(4, STANDARD_LIMITS, open_lowest).trajectory)
    log[2] = make(log[2])
    with pytest.raises(IllegalMoveError, match=r"^record 2 "):
        replay(4, STANDARD_LIMITS, log)


@pytest.mark.parametrize("action", [
    Open(True), Open(1.0), Open("1"), Open(None), Steal(True), Steal(2.0),
    Swap(2.0),
], ids=repr)
def test_replay_refuses_a_non_int_id(action):
    """An id that is not an int is an illegal move: `True` is not played as
    seat or gift 1, and a float, string or None fails as a move, not with a
    TypeError from deep in the state."""
    result = run_game(4, STANDARD_LIMITS, greedy_steal, swap=lambda st, rng: 2)
    log = list(result.trajectory)
    i = next(i for i, rec in enumerate(log) if type(rec[1]) is type(action))
    change(log, i, action=action)
    with pytest.raises(IllegalMoveError):
        replay(4, STANDARD_LIMITS, log)


@pytest.mark.parametrize("action", [Open(1), Steal(1), Swap(None)], ids=repr)
def test_actions_refuse_any_assignment(action):
    with pytest.raises(dataclasses.FrozenInstanceError):
        action.other = 1


def test_records_differing_only_in_action_kind_compare_unequal():
    """`open-turned-steal` above is refused because the seat to act holds
    nothing to steal, since replay hands the log's own action to the round
    loop; this pins that an open and a steal of the same number never
    compare equal."""
    assert Open(3) != Steal(3)
    assert Open(3) == Open(3)
    opened = ActionRecord(3, Open(3), 3, 0, 3)
    assert opened != ActionRecord(3, Steal(3), 3, 0, 3)
    assert opened == ActionRecord(3, Open(3), 3, 0, 3)
    assert opened == (3, Open(3), 3, 0, 3)  # a record is its plain tuple


@given(seed=st.integers(min_value=0, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_ownership_injective_after_every_transition(seed):
    """Property: no two seats ever own the same gift, checked per action."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    state = GameState(n)
    while state.to_act is not None:
        actor = state.to_act
        actions = state.legal_actions(actor)
        assert actions, "a wrapped gift must always remain mid-game"
        action = actions[int(rng.integers(0, len(actions)))]
        if isinstance(action, Open):
            state.apply_open(actor, action.gift)
        else:
            state.apply_steal(actor, action.victim)
        owned = [g for g in state.ownership[1:] if g is not None]
        assert len(owned) == len(set(owned))
        assert state.wrapped == sorted(
            g for g in range(1, n + 1) if state.holder[g] is None)
        opened = n - len(state.wrapped)
        # after round k completes, exactly k gifts are opened
        if isinstance(action, Open):
            assert opened == (n if state.to_act is None else state.round - 1)


def test_exactly_k_opened_after_round_k():
    seen = []  # (holders, wrapped gifts) after each round

    def check(state):
        seen.append((sum(h is not None for h in state.holder[1:]),
                     len(state.wrapped)))

    run_game(12, STANDARD_LIMITS, random_policy,
             rng=np.random.default_rng(5), on_round_end=check)
    assert seen == [(k, 12 - k) for k in range(1, 13)]


def steal_first(state, actor, rng):
    actions = state.legal_actions(actor)
    steals = [a for a in actions if isinstance(a, Steal)]
    return steals[0] if steals else actions[0]


def test_caps_respected_under_aggressive_play():
    for limits in (StealLimits(1, 0), StealLimits(1, 2), StealLimits(2, 1),
                   StealLimits(0, 0)):
        result = run_game(9, limits, steal_first)
        assert result.steal_count > 0
        # per-round and lifetime steals per gift, counted from the log
        round_counts, total_counts = {}, {}
        for _, action, k, _, gift in result.trajectory:
            if type(action) is Steal:
                key = (k, gift)
                round_counts[key] = round_counts.get(key, 0) + 1
                total_counts[gift] = total_counts.get(gift, 0) + 1
        assert max(round_counts.values()) == 1  # the chain lock, any per_round
        if limits.lifetime:
            assert max(total_counts.values()) <= limits.lifetime
        end = replay(9, limits, result.trajectory)
        assert end.total_steals[1:] == [total_counts.get(g, 0)
                                        for g in range(1, 10)]


@given(seed=st.integers(min_value=0, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_best_target_matches_stealable(seed):
    """Property: in every reachable state, a value row that is 1 at opened
    gift g and 0 elsewhere makes `best_target` take g's holder exactly when
    the actor is empty-handed and `stealable(g)` holds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    state = GameState(n, StealLimits(int(rng.integers(0, 3)),
                                         int(rng.integers(0, 4))))
    while state.to_act is not None:
        for a in range(1, n + 1):
            for g in state.opened_order:
                assert scan_takes(state, a, g) == (
                    state.ownership[a] is None and state.stealable(g))
        actor = state.to_act
        actions = state.legal_actions(actor)
        action = actions[int(rng.integers(0, len(actions)))]
        if isinstance(action, Open):
            state.apply_open(actor, action.gift)
        else:
            state.apply_steal(actor, action.victim)


# -- determinism --------------------------------------------------------------

def run_seeded(seed):
    rng = np.random.default_rng(seed)
    return run_game(13, STANDARD_LIMITS, random_policy, rng=rng)


def test_identical_seed_is_bit_identical():
    assert run_seeded(123) == run_seeded(123)


def test_identical_across_thread_counts():
    seeds = list(range(8))
    sequential = [run_seeded(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(run_seeded, seeds))
    assert sequential == threaded


# -- exhaustive enumeration (ties mechanics to the combinatorics) -------------

def enumerate_trajectories(n, limits):
    count = 0

    def walk(state):
        nonlocal count
        if state.to_act is None:
            count += 1
            return
        actor = state.to_act
        for action in state.legal_actions(actor):
            nxt = copy.deepcopy(state)
            if isinstance(action, Open):
                nxt.apply_open(actor, action.gift)
            else:
                nxt.apply_steal(actor, action.victim)
            walk(nxt)

    walk(GameState(n, limits))
    return count


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 60), (4, 3840)])
def test_engine_reaches_exactly_the_known_trajectory_counts(n, expected):
    assert enumerate_trajectories(n, STANDARD_LIMITS) == expected


def test_enumeration_two_players_two_outcomes():
    # 4 trajectories but only 2 distinct allocations before the swap.
    allocations = set()

    def walk(state):
        if state.to_act is None:
            allocations.add(tuple(state.ownership[1:]))
            return
        actor = state.to_act
        for action in state.legal_actions(actor):
            nxt = copy.deepcopy(state)
            if isinstance(action, Open):
                nxt.apply_open(actor, action.gift)
            else:
                nxt.apply_steal(actor, action.victim)
            walk(nxt)

    walk(GameState(2, STANDARD_LIMITS))
    assert len(allocations) == 2
