"""Valuation matrices, objective gift quality, and appearance signals.

Three generative models for the n x n matrix of subjective values (rows are
players, columns are gifts):

* independent -- every entry i.i.d. Uniform(0,1); quality is the column mean.
* correlated(rho) -- entries blend a shared per-gift quality with uniform
  idiosyncratic noise: clip(rho * q_j + sqrt(1 - rho^2) * eps_ij).
* negative(sigma) -- two camps split by seat parity value gifts oppositely:
  even seats get clip(q_j + N(0, sigma^2)), odd seats clip((1 - q_j) + ...).

All sampling goes through the caller's seeded generator; nothing touches OS
entropy, so regeneration with the same seed is bit-identical.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, require_float, require_int


class ModelKind(Enum):
    INDEPENDENT = "independent"
    CORRELATED = "correlated"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class ValuationModel:
    """Model kind plus its parameter (rho for correlated, sigma for negative)."""

    kind: ModelKind
    rho: float = 0.7
    sigma: float = 0.2

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ModelKind):
            raise ConfigurationError(
                f"kind must be a ModelKind, got {self.kind!r}")
        for key in ("rho", "sigma"):
            object.__setattr__(self, key, require_float(key, getattr(self, key)))
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigurationError(f"rho must be in [0, 1], got {self.rho}")
        if self.sigma <= 0.0:
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")

    @property
    def name(self) -> str:
        return self.kind.value


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same dtype, shape and bytes."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@dataclass(frozen=True, eq=False)
class ValuationMatrix:
    """Subjective values in [0,1] plus per-gift objective quality.

    ``values[i-1, j-1]`` is seat i's value for gift j. Two matrices are
    equal when their models are and their arrays have the same dtype,
    shape and bytes.
    """

    values: np.ndarray
    quality: np.ndarray
    model: ValuationModel

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not ValuationMatrix:
            return NotImplemented
        return (self.model == other.model
                and _same_array(self.values, other.values)
                and _same_array(self.quality, other.quality))

    def to_jsonable(self) -> dict:
        return {
            "model": self.model.name,
            "values": _f8_block(self.values),
            "quality": _f8_block(self.quality),
        }


@dataclass(frozen=True, eq=False)
class AppearanceVector:
    """Noisy per-gift quality signals, clipped to [0,1]; equal as
    `ValuationMatrix` is."""

    signals: np.ndarray
    noise_sd: float

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not AppearanceVector:
            return NotImplemented
        return (self.noise_sd == other.noise_sd
                and _same_array(self.signals, other.signals))

    def to_jsonable(self) -> dict:
        return {"noise_sd": self.noise_sd, "signals": _f8_block(self.signals)}


def _f8_block(arr: np.ndarray) -> dict:
    """`arr` as JSON without loss: its little-endian float64 bytes in C
    order, in base64, with its shape. `np.frombuffer` of the decoded bytes
    as ``"<f8"``, reshaped to ``shape``, gives the array back bit for bit."""
    raw = arr.astype("<f8", copy=False).tobytes()
    return {"dtype": "<f8", "shape": list(arr.shape),
            "base64": binascii.b2a_base64(raw, newline=False).decode("ascii")}


def generate_valuations(
    model: ValuationModel, n: int, rng: np.random.Generator
) -> ValuationMatrix:
    """Draw an n x n valuation matrix under `model`."""
    require_int("player count", n, 1)
    # np.minimum(np.maximum(..)) clips as np.clip does, and np.add.reduce
    # over n divides as `mean` does, each without the wrapper's overhead.
    if model.kind is ModelKind.INDEPENDENT:
        values = rng.random((n, n))
        quality = np.add.reduce(values, 0) / n
    elif model.kind is ModelKind.CORRELATED:
        quality = rng.random(n)
        eps = rng.random((n, n))
        raw = model.rho * quality[None, :] + np.sqrt(1.0 - model.rho**2) * eps
        values = np.minimum(np.maximum(raw, 0.0), 1.0)
    else:
        quality = rng.random(n)
        noise = rng.normal(0.0, model.sigma, (n, n))
        # Camp split by seat parity: even seats (rows 1, 3, ...) track
        # quality, odd seats 1 - q.
        base = np.empty((n, n))
        base[1::2] = quality
        base[0::2] = 1.0 - quality
        values = np.minimum(np.maximum(base + noise, 0.0), 1.0)
    return ValuationMatrix(values=values, quality=quality, model=model)


def generate_appearance(
    quality: np.ndarray, noise_sd: float, rng: np.random.Generator
) -> AppearanceVector:
    """Draw clipped appearance signals ``a_j = clip(q_j + N(0, noise_sd^2))``."""
    if noise_sd <= 0.0:
        raise ConfigurationError(f"appearance noise must be positive, got {noise_sd}")
    signals = np.minimum(
        np.maximum(quality + rng.normal(0.0, noise_sd, quality.shape), 0.0),
        1.0)
    return AppearanceVector(signals=signals, noise_sd=noise_sd)
