"""Base game mechanics: state, legal actions, stealing chains, rounds, final swap.

Players and gifts are identified by 1-based seat/gift indices. Seat order is
turn order: seat k takes the primary turn of round k. A steal displaces its
victim, who must act immediately; the resulting chain ends when somebody opens
a wrapped gift, which also ends the round. After round n the first player may
swap with any other player, then the game is over. `GameState.to_act` is the
one turn pointer: the transitions move it, and refuse any other actor, so the
seat that moves always holds nothing. `run_game` is the one round loop;
`replay` checks a logged trajectory by playing it again through it.
The loop logs each move in `GameResult.trajectory` as a plain
`(actor, action, round, position_in_chain, gift)` tuple; `ActionRecord` only
names those fields, and play builds none.

State is mutated in place. A single game is strictly single-threaded; distinct
games may run concurrently as long as each owns its state and random stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .errors import (ConfigurationError, IllegalMoveError, PhaseError,
                     require_int)


@dataclass(frozen=True)
class StealLimits:
    """Caps on how often a single gift may be stolen. 0 means unlimited.

    ``(1, 0)`` is the standard rule set: once per round, no lifetime cap.
    Only ``lifetime`` affects play. ``per_round`` is validated and echoed in
    exports but never binds: a round is exactly one chain, and a stolen gift
    stays chain-locked until the open that ends it, so no gift can be stolen
    twice in one round whatever the cap.
    """

    per_round: int = 1
    lifetime: int = 0

    def __post_init__(self) -> None:
        require_int("per_round", self.per_round, 0)
        require_int("lifetime", self.lifetime, 0)


STANDARD_LIMITS = StealLimits(1, 0)

# `GameState.offer` holds gift ids as bytes, so it is kept up to this many
# players only.
OFFER_MAX_N = 255


@dataclass(frozen=True)
class Open:
    gift: int


@dataclass(frozen=True)
class Steal:
    victim: int


@dataclass(frozen=True)
class Swap:
    partner: Optional[int]  # None = keep current gift


Action = Union[Open, Steal]


@cache
def shared_actions(n: int) -> tuple[tuple[Open, ...], tuple[Steal, ...]]:
    """One `Open(g)` and one `Steal(s)` per id 0..n, indexed by id, shared by
    every game of `n` players in the process. Sharing is safe only because
    actions are immutable; two racing first calls build equal tables."""
    return tuple(map(Open, range(n + 1))), tuple(map(Steal, range(n + 1)))


class ActionRecord(NamedTuple):
    """One logged move's fields by name; it equals the plain tuple that
    `run_game` logs. ``position_in_chain`` is 0 for the primary turn and
    increments along a stealing chain; ``gift`` is the gift opened, stolen,
    or received in the final swap (None for a declined swap)."""

    actor: int
    action: Union[Open, Steal, Swap]
    round: int
    position_in_chain: int
    gift: Optional[int]


class GameState:
    """Mutable game state.

    Attributes
    ----------
    ownership : list mapping seat -> gift id or None (index 0 unused)
    holder : inverse map, gift -> seat or None (None = still wrapped)
    wrapped : ids of the still-wrapped gifts, ascending
    opened_order : gift ids in opening order
    chain_locked : gifts stolen in the current chain (cleared at chain end,
        which is also the round's end, so it doubles as the per-round cap)
    total_steals : per-gift lifetime steal counters
    takeable : per-gift steal legality, kept by the transitions: True
        exactly when the gift is opened, not chain-locked and under the
        lifetime cap
    offer : seat-indexed bytes, kept beside `takeable` while gift ids fit
        a byte (n <= OFFER_MAX_N), else None: ``offer[s]`` is the id of the
        gift seat s holds while that gift is takeable, else 0
    round : current round index, 1..n
    to_act : the seat that must move next: seat k at round k's start, the
        victim after each steal, None once round n's open is applied
    """

    __slots__ = (
        "n", "limits", "ownership", "holder", "wrapped", "opened_order",
        "chain_locked", "total_steals", "takeable", "offer", "round",
        "to_act", "concluded",
    )

    def __init__(self, n: int, limits: StealLimits = STANDARD_LIMITS) -> None:
        """Fresh state: everything wrapped and unowned, round 1."""
        require_int("player count", n, 1)
        if not isinstance(limits, StealLimits):
            raise ConfigurationError(
                f"limits must be a StealLimits, got {limits!r}")
        self.n = n
        self.limits = limits
        self.ownership: list[Optional[int]] = [None] * (n + 1)
        self.holder: list[Optional[int]] = [None] * (n + 1)
        self.wrapped: list[int] = list(range(1, n + 1))
        self.opened_order: list[int] = []
        self.chain_locked: set[int] = set()
        self.total_steals: list[int] = [0] * (n + 1)
        self.takeable: list[bool] = [False] * (n + 1)
        self.offer: Optional[bytearray] = (bytearray(n + 1)
                                           if n <= OFFER_MAX_N else None)
        self.round = 1
        self.to_act: Optional[int] = 1
        self.concluded = False

    # -- queries ----------------------------------------------------------

    def stealable(self, gift: int) -> bool:
        """True iff `gift` is opened, not chain-locked and under the lifetime
        cap: its `takeable` flag, which `strategies.best_target` reads too.
        Only `apply_open` and `apply_steal` evaluate the rule."""
        return self.takeable[gift]

    def legal_actions(self, actor: int) -> list[Action]:
        """Opens by gift id, then steals by seat: the exhaustive-play oracle."""
        if self.to_act is None:
            raise PhaseError("rounds are over; only the final swap remains")
        victims = sorted(self.holder[g] for g in self.opened_order
                         if self.holder[g] != actor and self.stealable(g))
        return [Open(g) for g in self.wrapped] + [Steal(m) for m in victims]

    # -- transitions ------------------------------------------------------

    def _out_of_turn(self, actor: object) -> Exception:
        """The refusal of a move by `actor`, who is not `to_act`."""
        if self.to_act is None:
            return PhaseError(f"rounds are over; seat {actor!r} cannot move")
        return IllegalMoveError(f"seat {self.to_act} is to act, not {actor!r}")

    def apply_open(self, actor: int, gift: int) -> None:
        """Open `gift`, ending the current chain and the round."""
        if type(actor) is not int or actor != self.to_act:
            raise self._out_of_turn(actor)
        if (type(gift) is not int or not 1 <= gift <= self.n
                or self.holder[gift] is not None):
            raise IllegalMoveError(f"gift {gift!r} is not available to open")
        self.ownership[actor] = gift
        self.holder[gift] = actor
        self.wrapped.remove(gift)
        self.opened_order.append(gift)
        takeable, offer = self.takeable, self.offer
        takeable[gift] = True  # never stolen, so under any cap
        if offer is not None:
            offer[actor] = gift
        # Every open ends the chain and the round: its locks lift, and a
        # locked gift is takeable again unless the steal used up its cap.
        lifetime, total = self.limits.lifetime, self.total_steals
        for g in self.chain_locked:
            if not lifetime or total[g] < lifetime:
                takeable[g] = True
                if offer is not None:
                    offer[self.holder[g]] = g
        self.chain_locked.clear()
        if self.round == self.n:
            self.to_act = None
        else:
            self.round = self.to_act = self.round + 1

    def apply_steal(self, thief: int, victim: int) -> None:
        """Steal the victim's gift; the victim is the next to act."""
        if type(thief) is not int or thief != self.to_act:
            raise self._out_of_turn(thief)
        if type(victim) is not int or not 1 <= victim <= self.n:
            raise IllegalMoveError(f"no such seat {victim!r}")
        gift = self.ownership[victim]
        if gift is None:
            raise IllegalMoveError(f"seat {victim} owns nothing to steal")
        if not self.takeable[gift]:
            raise IllegalMoveError(f"gift {gift} is not stealable")
        self.ownership[thief] = gift
        self.holder[gift] = thief
        self.ownership[victim] = None
        self.chain_locked.add(gift)
        self.takeable[gift] = False
        if self.offer is not None:
            self.offer[victim] = 0  # the thief's new gift is locked
        self.total_steals[gift] += 1
        self.to_act = victim

    def final_swap(self, partner: Optional[int]) -> None:
        """Seat 1's optional trade. No chain, no locks, no counter updates."""
        if self.to_act is not None:
            raise PhaseError("final swap is only available after round n")
        if self.concluded:
            raise PhaseError("game already concluded")
        if partner is not None:
            if (type(partner) is not int or partner == 1
                    or not 1 <= partner <= self.n):
                raise IllegalMoveError(f"invalid swap partner {partner!r}")
            g1, gm = self.ownership[1], self.ownership[partner]
            self.ownership[1], self.ownership[partner] = gm, g1
            self.holder[gm], self.holder[g1] = 1, partner
            offer = self.offer
            if offer is not None:
                offer[1], offer[partner] = offer[partner], offer[1]
        self.concluded = True


@dataclass(frozen=True)
class GameResult:
    """Outcome of a complete game plus a replayable action log.

    ``trajectory`` holds one ``(actor, action, round, position_in_chain,
    gift)`` tuple per move, the fields of `ActionRecord` in order.
    """

    n: int
    limits: StealLimits
    final_ownership: dict[int, int]
    trajectory: tuple[tuple, ...]
    steal_count: int
    chain_lengths: tuple[int, ...]


DecideFn = Callable[[GameState, int, object], Action]
SwapFn = Callable[[GameState, object], Optional[int]]


def run_game(
    n: int,
    limits: StealLimits,
    decide: DecideFn,
    swap: Optional[SwapFn] = None,
    rng: object = None,
    on_round_end: Optional[Callable[[GameState], None]] = None,
) -> GameResult:
    """Play rounds 1..n and the final swap; returns a bijective allocation.

    Round k is seat k's primary turn plus the displacement chain it starts.
    `decide(state, actor, rng)` is asked for the move of `state.to_act` and
    must return a legal Open or Steal; an illegal action raises immediately
    (policies are trusted code, not user input).
    `swap(state, rng)` picks seat 1's trade partner (None keeps); when omitted
    the swap is declined. `on_round_end` is a bookkeeping hook (e.g. emotional
    decay) called after each round.
    """
    state = GameState(n, limits)
    chain_lengths: list[int] = []
    moves: list[tuple] = []
    for k in range(1, n + 1):
        position = 0
        while True:
            actor = state.to_act
            action = decide(state, actor, rng)
            if type(action) is Open:
                state.apply_open(actor, action.gift)
                moves.append((actor, action, k, position, action.gift))
                break
            if type(action) is not Steal:
                raise IllegalMoveError(f"policy returned {action!r}")
            state.apply_steal(actor, action.victim)
            moves.append((actor, action, k, position, state.ownership[actor]))
            position += 1
        assert position <= n - 1  # chain termination bound
        chain_lengths.append(position)
        if on_round_end is not None:
            on_round_end(state)
    partner = swap(state, rng) if swap is not None else None
    state.final_swap(partner)
    received = state.ownership[1] if partner is not None else None
    moves.append((1, Swap(partner), n, 0, received))
    final = {p: state.ownership[p] for p in range(1, n + 1)}
    return GameResult(
        n=n,
        limits=limits,
        final_ownership=final,
        trajectory=tuple(moves),
        steal_count=sum(chain_lengths),
        chain_lengths=tuple(chain_lengths),
    )


def replay(
    n: int, limits: StealLimits, trajectory: Sequence[tuple]
) -> GameState:
    """Play a logged trajectory again through `run_game`; return the end state.

    The log is a sequence of 5-tuples (or `ActionRecord`s). Its actions drive
    the game, and the game must log exactly the same tuples: every field, the
    swap last, nothing after it. Any other log raises `IllegalMoveError`.
    """
    log = tuple(trajectory)
    for i, rec in enumerate(log):
        if not isinstance(rec, tuple) or len(rec) != 5:
            raise IllegalMoveError(f"record {i} {rec!r} is not a 5-tuple")
    moves = iter(log)
    end: list[GameState] = []

    def decide(state: GameState, actor: int, rng: object) -> Action:
        rec = next(moves, None)
        if rec is None:
            raise IllegalMoveError("the log ends before the game does")
        return rec[1]

    def swap(state: GameState, rng: object) -> Optional[int]:
        rec = next(moves, None)
        if rec is None or type(rec[1]) is not Swap:
            raise IllegalMoveError(f"the log has {rec!r} where the swap is due")
        end.append(state)
        return rec[1].partner

    played = run_game(n, limits, decide, swap).trajectory
    if log != played:
        for i, (got, want) in enumerate(zip(log, played)):
            for name, have, logs in zip(ActionRecord._fields, got, want):
                if have != logs:
                    raise IllegalMoveError(
                        f"record {i} {got!r} names {name} {have}, "
                        f"the game logs {logs}")
        raise IllegalMoveError(
            f"the log has {len(log)} records, the game {len(played)}")
    return end[0]
