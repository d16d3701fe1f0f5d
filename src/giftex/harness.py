"""Full-factorial experiment runner and per-game simulation assembly.

The factorial crosses all 16 feature subsets with the three valuation models
(48 conditions). Every game gets its own generator seeded from
``(base_seed, condition index, game index)``, so results are independent of
execution order and worker count; a game is ``draw_inputs``, whose draws no
feature changes, then ``play`` on the same generator.

Per-game metrics: total steals, chain lengths, each seat's true value of its
final gift, and the same values grouped by strategy. Seat and strategy metrics
use true (not perceived) valuations; perception only shapes decisions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from functools import cache
from itertools import combinations
from multiprocessing import get_context
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import strategies
from .behavior import (FEATURE_ORDER, BehaviorParams, Feature,
                       SocialState, adaptive_prob_linear, feature_label,
                       frustration_decay, frustration_on_theft,
                       running_total, selection_weights)
from .beliefs import wrapped_gift_value
from .engine import (OFFER_MAX_N, STANDARD_LIMITS, GameResult, StealLimits,
                     run_game, shared_actions)
from .errors import ConfigurationError, require_float, require_int
from .strategies import (ALWAYS_OPEN, EXPECTED_VALUE, MEAN_BASED,
                         STRATEGY_ORDER, Strategy, choose_open_gift,
                         decide as strategy_decide)
from .valuation import (AppearanceVector, ModelKind, ValuationMatrix,
                        ValuationModel, generate_appearance,
                        generate_valuations)

MODEL_ORDER = tuple(ModelKind)

# When less than this much selection weight is left wrapped, the pool's weights
# are re-derived over the pool itself: far above float underflow, and far
# below what any pool holds at the default temperature.
_REWEIGHT_BELOW = 1e-8


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment-wide knobs. Defaults are the standard desk-scale setup;
    `games_per_condition` is deliberately scaled down from the full 5000."""

    n_players: int = 29
    games_per_condition: int = 1000
    base_seed: int = 42
    limits: StealLimits = STANDARD_LIMITS
    behavior: BehaviorParams = BehaviorParams()
    rho: float = 0.7        # correlated-model strength
    sigma_neg: float = 0.2  # negative-model noise sd

    def __post_init__(self) -> None:
        for key, minimum in (("n_players", 1), ("games_per_condition", 1),
                             ("base_seed", 0)):
            require_int(key, getattr(self, key), minimum)
        for key, kind in (("limits", StealLimits), ("behavior", BehaviorParams)):
            value = getattr(self, key)
            if not isinstance(value, kind):
                raise ConfigurationError(
                    f"{key} must be a {kind.__name__}, got {value!r}")
        for key in ("rho", "sigma_neg"):
            object.__setattr__(self, key, require_float(key, getattr(self, key)))
        for kind in MODEL_ORDER:
            self.model_for(kind)  # validates rho and sigma_neg

    def model_for(self, kind: ModelKind) -> ValuationModel:
        return ValuationModel(kind, rho=self.rho, sigma=self.sigma_neg)

    def to_dict(self) -> dict:
        return {
            "n_players": self.n_players,
            "games_per_condition": self.games_per_condition,
            "base_seed": self.base_seed,
            "steal_limits": asdict(self.limits),
            "behavior": asdict(self.behavior),
            "models": {"rho": self.rho, "sigma_neg": self.sigma_neg},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = _section(data, "config", {
            "n_players", "games_per_condition", "base_seed", "steal_limits",
            "behavior", "models"})
        kwargs = {key: data[key] for key in
                  ("n_players", "games_per_condition", "base_seed") if key in data}
        if "steal_limits" in data:
            kwargs["limits"] = StealLimits(**_section(
                data["steal_limits"], "steal_limits", {"per_round", "lifetime"}))
        if "behavior" in data:
            kwargs["behavior"] = BehaviorParams(**_section(
                data["behavior"], "behavior",
                {f.name for f in fields(BehaviorParams)}))
        if "models" in data:
            kwargs.update(_section(data["models"], "models", {"rho", "sigma_neg"}))
        return cls(**kwargs)


def _section(value, name: str, allowed: set) -> dict:
    """`value` if it is a JSON object holding only `allowed` keys."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name} must be an object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {sorted(unknown)}")
    return value


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file (all fields optional)."""
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


@dataclass(frozen=True)
class Condition:
    """One cell of the factorial: a valuation model plus a feature subset."""

    index: int
    model_kind: ModelKind
    features: frozenset[Feature]

    @property
    def label(self) -> str:
        return feature_label(self.features)


def enumerate_conditions(config: ExperimentConfig) -> list[Condition]:
    """All 48 conditions: models in fixed order, feature subsets in
    binary-mask order (empty set first, FULL last)."""
    conditions = []
    for mi, kind in enumerate(MODEL_ORDER):
        for mask in range(1 << len(FEATURE_ORDER)):
            features = frozenset(
                f for bit, f in enumerate(FEATURE_ORDER) if mask >> bit & 1)
            conditions.append(Condition(mi * 16 + mask, kind, features))
    return conditions


# ---------------------------------------------------------------------------
# single game
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GameInputs:
    """One game's drawn inputs, which no feature changes (index 0 = seat 1)."""

    valuations: ValuationMatrix
    appearance: AppearanceVector
    strategies: tuple[Strategy, ...]


@dataclass(frozen=True)
class PlayedGame:
    """A finished game, the inputs it was played from, and each seat's true
    value of its final gift (index 0 = seat 1)."""

    result: GameResult
    inputs: GameInputs
    seat_values: tuple[float, ...]


class _SeenSums:
    """Each seat's sum of its own values over the opened gifts, for the
    rules that read a mean. A seat's sum catches up over `opened_order` only
    when the seat reads it, adding in opening order from 0.0: the same float
    additions, in the same order, as a sum kept on every open. `rows` are
    float sequences indexed by gift id (lists or float64 views)."""

    __slots__ = ("rows", "values", "sums", "upto", "totals")

    def __init__(self, rows: Sequence[Sequence[float]],
                 values: np.ndarray) -> None:
        self.rows = rows  # rows[seat][gift]
        self.values = values  # values[seat - 1, gift - 1]
        self.sums = [0.0] * len(rows)
        self.upto = [0] * len(rows)  # how much of `opened_order` is summed
        self.totals: list[Optional[float]] = [None] * len(rows)

    def seen(self, seat: int, opened: list[int]) -> float:
        """The seat's sum over the gifts in `opened`, the game's opening order."""
        row, s = self.rows[seat], self.sums[seat]
        for g in opened[self.upto[seat]:]:
            s += row[g]
        self.sums[seat], self.upto[seat] = s, len(opened)
        return s

    def unseen(self, seat: int, opened: list[int]) -> float:
        """The seat's row sum, taken on first read, less `seen`."""
        total = self.totals[seat]
        if total is None:
            # Left to right, as `running_total` adds, but without a Python
            # call per value: `add.accumulate` adds in order, where `sum`
            # (numpy's pairwise, or builtin from Python 3.12) does not.
            total = self.totals[seat] = float(
                np.add.accumulate(self.values[seat - 1])[-1])
        return total - self.seen(seat, opened)


# Words `_Draws` takes from the generator at a time.
_DRAW_BLOCK = 64
_LOW32 = 0xFFFFFFFF


class _Draws:
    """Play's scalar draws, `random()` and `integers(low, high)`, read from
    a PCG64 generator's raw 64-bit words, fetched `_DRAW_BLOCK` at a time:
    the floats and ints numpy's own calls return, in the same order,
    without numpy's per-call overhead. `random()` is numpy's
    `(word >> 11) * 2**-53`. `integers` is numpy's 32-bit Lemire draw
    (Lemire 2019, arXiv:1805.10941) for spans of 2 to 2**32; a span of 1
    draws nothing. Its 32-bit halves come as numpy takes them: a word's low
    half first, its high half kept for the next 32-bit draw, which a
    `random()` in between leaves alone. `close` hands the generator back
    exactly where numpy's calls would have left it."""

    __slots__ = ("source", "start", "words", "fetched", "has_half", "half")

    def __init__(self, bit_generator: np.random.PCG64) -> None:
        state = self.start = bit_generator.state
        self.source = bit_generator
        self.words: list[int] = []  # the block's unread words, last first
        self.fetched = 0  # words taken from the generator
        # numpy's `has_uint32` and `uinteger`: the buffered high half, and
        # the last one buffered, kept after it is read, as numpy keeps it.
        self.has_half = state["has_uint32"]
        self.half = state["uinteger"]

    def _fetch(self) -> int:
        """Fetch a block; return its first word."""
        self.fetched += _DRAW_BLOCK
        words = self.words = self.source.random_raw(
            _DRAW_BLOCK).tolist()
        words.reverse()
        return words.pop()

    def _uint32(self) -> int:
        if self.has_half:
            self.has_half = 0
            return self.half
        words = self.words
        word = words.pop() if words else self._fetch()
        self.has_half, self.half = 1, word >> 32
        return word & _LOW32

    def random(self) -> float:
        words = self.words
        return ((words.pop() if words else self._fetch()) >> 11) * 2.0 ** -53

    def integers(self, low: int, high: int) -> int:
        span = high - low
        if span == 1:
            return low
        m = self._uint32() * span
        if m & _LOW32 < span:
            # Rejection: draws whose low part falls under 2**32 mod span.
            threshold = (1 << 32) % span
            while m & _LOW32 < threshold:
                m = self._uint32() * span
        return low + (m >> 32)

    def close(self) -> None:
        """Set the generator back to its start state with this object's
        buffered half, then step it over the words the draws read."""
        state = self.start
        state["has_uint32"], state["uinteger"] = self.has_half, self.half
        self.source.state = state
        self.source.random_raw(self.fetched - len(self.words), output=False)


def _require_pcg64(rng: np.random.Generator) -> None:
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ConfigurationError(
            "play needs a PCG64 generator, got "
            f"{type(rng.bit_generator).__name__}")


def play_game(
    n: int,
    limits: StealLimits,
    model: ValuationModel,
    features: frozenset[Feature],
    params: BehaviorParams,
    rng: np.random.Generator,
) -> PlayedGame:
    """Draw one game's inputs and play them; a non-PCG64 `rng` is refused
    before any draw."""
    _require_pcg64(rng)
    return play(draw_inputs(model, n, params, rng), limits, features, params,
                rng)


def draw_inputs(model: ValuationModel, n: int, params: BehaviorParams,
                rng: np.random.Generator) -> GameInputs:
    """Draw one game's inputs, in this fixed order: the valuation matrix, the
    appearance signals, then each seat's strategy, uniform per seat."""
    vm = generate_valuations(model, n, rng)
    app = generate_appearance(vm.quality, params.sigma_a, rng)
    codes = rng.integers(0, len(STRATEGY_ORDER), size=n)
    return GameInputs(vm, app,
                      tuple(map(STRATEGY_ORDER.__getitem__, codes.tolist())))


def play(inputs: GameInputs, limits: StealLimits, features: frozenset[Feature],
         params: BehaviorParams, rng: np.random.Generator) -> PlayedGame:
    """Play one decorated game from its inputs. `rng` must be a PCG64
    generator (`default_rng`'s): play's scalar draws read its raw words
    through `_Draws`, which leaves it where numpy's own calls would. The
    inputs' parts must agree on the seat count, that of `strategies`."""
    _require_pcg64(rng)
    vm, app, assigned = inputs.valuations, inputs.appearance, inputs.strategies
    n = len(assigned)
    require_int("player count", n, 1)
    for part, shape, want in (("valuations.values", vm.values.shape, (n, n)),
                              ("appearance.signals", app.signals.shape, (n,))):
        if shape != want:
            raise ConfigurationError(
                f"{part} has shape {shape}, not {want} for {n} strategies")
    by_seat = (None,) + assigned  # seat-indexed

    padded = np.zeros((n + 1, n + 1))
    padded[1:, 1:] = vm.values
    # V[seat][gift], row and column 0 unused: a float64 view per seat, whose
    # items read as the same Python floats `tolist` makes, built per read.
    flat = memoryview(padded.reshape(-1))
    V = [flat[i:i + n + 1] for i in range(0, (n + 1) ** 2, n + 1)]
    seen = _SeenSums(V, vm.values)
    # order[seat]: gift ids by descending value, for `best_target`'s walk;
    # a view per seat of one id array of the smallest type that holds n,
    # whose items read as Python ints.
    ids = (-vm.values).argsort(axis=1).astype(np.min_scalar_type(n))
    ids += 1
    flat_ids = memoryview(ids.reshape(-1))
    order = [None] + [flat_ids[i:i + n] for i in range(0, n * n, n)]

    pi_on = Feature.PI in features
    sc_on = Feature.SC in features
    ad_on = Feature.AD in features
    bs_on = Feature.BS in features

    # What a wrapped gift looks like: its certainty equivalent under PI, else
    # its appearance signal (which only biased selection reads).
    sel_vals = [0.0] + (wrapped_gift_value(app.signals, params) if pi_on
                        else app.signals).tolist()
    ce_wrapped_sum = running_total(sel_vals) if pi_on else 0.0
    weights: Optional[list[float]] = None
    # A float64 copy of `weights` for `choose_open_gift`'s C draw, kept only
    # where a pool can pass its threshold; an opened gift reads 0.0 in it.
    weight_row: Optional[np.ndarray] = None
    if bs_on:
        weights = [0.0] + selection_weights(sel_vals[1:], params.tau)
        if n > strategies.C_DRAW_ABOVE:
            weight_row = np.array(weights)
    wrapped_weight = 1.0  # of `weights`, over the still-wrapped gifts

    # Steal history is read only by the SC cost, frustration only by the AD
    # gate, so each is kept only when its reader is on.
    social = SocialState(n) if sc_on or ad_on else None
    sc_social = social if sc_on else None
    frustration = social.frustration if ad_on else None
    # Each seat's `best_target` table of the gifts tied at its top value,
    # built at its first scan; only SC-off scans read one, and only while
    # the engine keeps `offer`.
    tops: Optional[list] = None
    if not sc_on and strategies.TOP_TABLE_ABOVE < n <= OFFER_MAX_N:
        tops = [None] * (n + 1)

    p0, l1, l2 = params.p0, params.lambda1, params.lambda2
    threshold = params.threshold
    inv_n = 1.0 / n
    opens, steals = shared_actions(n)

    def decide(st, actor, game_rng):
        nonlocal ce_wrapped_sum, wrapped_weight
        kind = by_seat[actor]
        wrapped = st.wrapped
        victim = None
        # The AD gate's draw comes first (the exports pin the draw order); a
        # closed gate opens without consulting the strategy, and an
        # always_open seat opens without scanning.
        if (not ad_on or game_rng.random() < adaptive_prob_linear(
                p0, st.round * inv_n, frustration[actor], l1, l2)
                ) and kind is not ALWAYS_OPEN:
            top = b""
            if tops is not None:
                top = tops[actor]
                if top is None:
                    top = tops[actor] = strategies.top_table(V[actor],
                                                             order[actor])
            # Through the module, where the benchmark's tracer wraps it.
            best = strategies.best_target(st, actor, V[actor], order[actor],
                                          sc_social, params, top)
            if best is not None:
                # Each mean has one reader; a target implies an opened gift,
                # and a decision always has a wrapped one.
                opened_mean = wrapped_mean = 0.0
                if kind is MEAN_BASED:
                    opened = st.opened_order
                    opened_mean = seen.seen(actor, opened) / len(opened)
                elif kind is EXPECTED_VALUE:
                    if pi_on:
                        wrapped_mean = ce_wrapped_sum / len(wrapped)
                    else:
                        wrapped_mean = (seen.unseen(actor, st.opened_order)
                                        / len(wrapped))
                victim = strategy_decide(kind, best, opened_mean,
                                         wrapped_mean, threshold, game_rng)
        # Bookkeeping happens here because the engine either applies exactly
        # this action or aborts the game.
        if victim is None:
            if bs_on and wrapped_weight < _REWEIGHT_BELOW:
                # Weights normalized over all n gifts underflow once the
                # heavy ones are open; normalize over what is left instead.
                fresh = selection_weights(
                    [sel_vals[gift] for gift in wrapped], params.tau)
                for gift, w in zip(wrapped, fresh):
                    weights[gift] = w
                if weight_row is not None:
                    weight_row[wrapped] = fresh
                wrapped_weight = 1.0
            g = choose_open_gift(wrapped, weights, game_rng, weight_row)
            if pi_on:
                ce_wrapped_sum -= sel_vals[g]
            if bs_on:
                wrapped_weight -= weights[g]
                if weight_row is not None:
                    weight_row[g] = 0.0
            return opens[g]
        if sc_on:
            social.note_steal(actor, victim)
        if ad_on:
            frustration_on_theft(social, victim, params.gamma)
        return steals[victim]

    def swap(st, game_rng):
        # Seat 1 trades for its top-valued gift; strict improvement only.
        # `max` keeps the first maximum: the lowest gift id on a tie.
        row = V[1]
        top = max(range(1, n + 1), key=row.__getitem__)
        return st.holder[top] if row[top] > row[st.ownership[1]] else None

    def round_end(st):
        frustration_decay(social, params.gamma_prime)

    draws = _Draws(rng.bit_generator)
    try:
        result = run_game(n, limits, decide, swap=swap, rng=draws,
                          on_round_end=round_end if ad_on else None)
    finally:
        draws.close()
    seat_values = tuple(
        V[seat][result.final_ownership[seat]] for seat in range(1, n + 1))
    return PlayedGame(result=result, inputs=inputs, seat_values=seat_values)


def game_rng(base_seed: int, condition_index: int, game_index: int) -> np.random.Generator:
    """Deterministic per-game generator keyed on (seed, condition, game)."""
    return np.random.default_rng([base_seed, condition_index, game_index])


def game_trace(game: PlayedGame) -> dict:
    """JSON-serializable dump of one game: inputs, trajectory, outcome."""
    records = []
    for actor, action, k, position, gift in game.result.trajectory:
        kind = type(action).__name__.lower()
        record = {"actor": actor, "kind": kind, "round": k,
                  "position_in_chain": position, "gift": gift}
        if kind == "steal":
            record["victim"] = action.victim
        elif kind == "swap":
            record["partner"] = action.partner
        records.append(record)
    return {
        "players": game.result.n,
        "valuations": game.inputs.valuations.to_jsonable(),
        "appearance": game.inputs.appearance.to_jsonable(),
        "strategies": [s.value for s in game.inputs.strategies],
        "trajectory": records,
        "final_ownership": {str(k): v for k, v in
                            sorted(game.result.final_ownership.items())},
        "steal_count": game.result.steal_count,
        "chain_lengths": list(game.result.chain_lengths),
    }


# ---------------------------------------------------------------------------
# condition aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionSummary:
    """Aggregate metrics over all games of one condition."""

    index: int
    model: str
    features: str
    features_set: frozenset[Feature]
    games: int
    steals_per_game: float
    mean_chain_length: float  # pooled: total steals / total nonzero chains
    seat_means: tuple[float, ...]
    strategy_means: dict[str, float]
    strategy_counts: dict[str, int]


def run_condition(condition: Condition, config: ExperimentConfig) -> ConditionSummary:
    """Run `games_per_condition` independent games and aggregate metrics."""
    n = config.n_players
    model = config.model_for(condition.model_kind)
    params = config.behavior
    steals_total = 0
    chains_total = 0
    seat_sums = [0.0] * n
    # [value sum, seats] per strategy, keyed by the member's value: a str
    # hashes once and caches it, an enum member hashes in Python each time.
    strat_cells = {s.value: [0.0, 0] for s in STRATEGY_ORDER}
    for game_index in range(config.games_per_condition):
        rng = game_rng(config.base_seed, condition.index, game_index)
        game = play_game(n, config.limits, model, condition.features, params, rng)
        steals_total += game.result.steal_count
        chains = game.result.chain_lengths
        chains_total += len(chains) - chains.count(0)
        for seat, (value, strat) in enumerate(
                zip(game.seat_values, game.inputs.strategies)):
            seat_sums[seat] += value
            cell = strat_cells[strat._value_]
            cell[0] += value
            cell[1] += 1
    games = config.games_per_condition
    return ConditionSummary(
        index=condition.index,
        model=condition.model_kind.value,
        features=condition.label,
        features_set=condition.features,
        games=games,
        steals_per_game=steals_total / games,
        mean_chain_length=steals_total / chains_total if chains_total else 0.0,
        seat_means=tuple(s / games for s in seat_sums),
        strategy_means={s: total / count if count else 0.0
                        for s, (total, count) in strat_cells.items()},
        strategy_counts={s: c for s, (_, c) in strat_cells.items()},
    )


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    conditions: Optional[Sequence[Condition]] = None,
) -> list[ConditionSummary]:
    """Run the factorial on at most `jobs` worker processes, never more than
    there are conditions; one runs in this process. Results are keyed by
    condition index, so the output is identical for any `jobs` value, and
    so are the exported bytes.

    Workers are forked from the caller: they start with its imported
    modules, re-import nothing, and need no `if __name__ == "__main__":`
    guard in the calling script. A pooled run therefore needs POSIX
    `fork`, and should be started from a process that runs no other
    threads; `jobs=1` runs without a pool on any platform."""
    require_int("jobs", jobs, 1)
    if conditions is None:
        conditions = enumerate_conditions(config)
    workers = min(jobs, len(conditions))
    if workers <= 1:
        summaries = [run_condition(c, config) for c in conditions]
    else:
        ctx = get_context("fork")
        with ctx.Pool(workers) as pool:
            summaries = pool.starmap(
                run_condition, [(c, config) for c in conditions])
    return sorted(summaries, key=lambda s: s.index)


# ---------------------------------------------------------------------------
# effects
# ---------------------------------------------------------------------------

EFFECT_METRICS = ("steals_per_game", "mean_chain_length")


def compute_effects(summaries: Sequence[ConditionSummary]) -> dict:
    """Per model and on each of `EFFECT_METRICS`: each feature's main effect,
    Y({f}) - Y(BASE), and each pair's 2x2 factorial interaction,
    Y({f1,f2}) - Y({f1}) - Y({f2}) + Y(BASE). Models keep their order of
    first appearance; a cell either formula reads must be present."""
    table = {(s.model, s.features_set): s for s in summaries}
    main: dict = {}
    inter: dict = {}
    for model in dict.fromkeys(s.model for s in summaries):
        def y(metric: str, *features: Feature) -> float:
            try:
                return getattr(table[(model, frozenset(features))], metric)
            except KeyError:
                label = feature_label(frozenset(features))
                raise ValueError(
                    f"missing condition {model}/{label}") from None

        main[model] = {
            f.name: {m: y(m, f) - y(m) for m in EFFECT_METRICS}
            for f in FEATURE_ORDER}
        inter[model] = {
            f"{f1.name}x{f2.name}": {
                m: y(m, f1, f2) - y(m, f1) - y(m, f2) + y(m)
                for m in EFFECT_METRICS}
            for f1, f2 in combinations(FEATURE_ORDER, 2)}
    return {"main_effects": main, "interactions": inter}


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

@cache
def _seat_names(n_seats: int) -> tuple[str, ...]:
    """Formatted once per seat count rather than once per exported row."""
    return tuple(f"seat_{i}" for i in range(1, n_seats + 1))


def _columns(s: ConditionSummary) -> list[tuple[str, Union[str, int, float]]]:
    """One condition's export columns, (name, value), in their fixed order."""
    return [
        ("condition_id", f"{s.model}/{s.features}"),
        ("model", s.model),
        ("features", s.features),
        ("games", s.games),
        ("steals_per_game", s.steals_per_game),
        ("mean_chain_length", s.mean_chain_length),
        *zip(_seat_names(len(s.seat_means)), s.seat_means),
        *((f"strat_{st.value}", s.strategy_means[st.value])
          for st in STRATEGY_ORDER),
    ]


def _round_tree(node):
    if isinstance(node, dict):
        return {k: _round_tree(v) for k, v in node.items()}
    if isinstance(node, float):
        return round(node, 6)
    return node


def export(
    summaries: Sequence[ConditionSummary],
    effects: dict,
    fmt: str,
    destination: Union[str, Path],
    config: ExperimentConfig,
) -> None:
    """Write the run to `destination` as CSV (one row per condition) or JSON
    (same fields plus a config echo and the effect blocks). Numbers carry six
    fractional digits, and the column order is fixed, so identical runs
    produce byte-identical files."""
    if not summaries:
        raise ValueError("no conditions to export")
    summaries = sorted(summaries, key=lambda s: s.index)
    destination = Path(destination)
    if fmt == "csv":
        with open(destination, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([name for name, _ in _columns(summaries[0])])
            for s in summaries:
                writer.writerow([f"{v:.6f}" if isinstance(v, float) else v
                                 for _, v in _columns(s)])
    elif fmt == "json":
        doc = {
            "config": config.to_dict(),
            "conditions": [_round_tree(dict(_columns(s))) for s in summaries],
            "effects": _round_tree(effects),
        }
        with open(destination, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown export format: {fmt}")
