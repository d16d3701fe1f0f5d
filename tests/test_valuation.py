"""Valuation model generation: distributions, clipping, camps, reproducibility."""

import json
from dataclasses import replace

import numpy as np
import pytest

from giftex.errors import ConfigurationError
from giftex.valuation import (ModelKind, ValuationModel, generate_appearance,
                              generate_valuations)

IND = ValuationModel(ModelKind.INDEPENDENT)


def test_entries_in_unit_interval_all_models():
    rng = np.random.default_rng(0)
    for model in (IND, ValuationModel(ModelKind.CORRELATED, rho=0.7),
                  ValuationModel(ModelKind.NEGATIVE, sigma=0.5)):
        vm = generate_valuations(model, 40, rng)
        assert vm.values.min() >= 0.0 and vm.values.max() <= 1.0


def test_independent_quality_is_column_mean():
    vm = generate_valuations(IND, 12, np.random.default_rng(1))
    np.testing.assert_allclose(vm.quality, vm.values.mean(axis=0))


def test_correlated_rho_one_everyone_agrees():
    vm = generate_valuations(ValuationModel(ModelKind.CORRELATED, rho=1.0),
                             10, np.random.default_rng(2))
    for i in range(10):
        np.testing.assert_allclose(vm.values[i], vm.quality)


def test_correlated_rho_zero_is_pure_noise():
    # rho=0 collapses to i.i.d. uniforms: values must not depend on quality.
    vm = generate_valuations(ValuationModel(ModelKind.CORRELATED, rho=0.0),
                             200, np.random.default_rng(3))
    corr = np.corrcoef(vm.quality, vm.values.mean(axis=0))[0, 1]
    assert abs(corr) < 0.2
    assert abs(vm.values.mean() - 0.5) < 0.01


def test_correlated_consensus_increases_with_rho():
    """Empirical quality/column-mean correlation is monotone over rho."""
    rng = np.random.default_rng(4)
    corrs = []
    for rho in (0.0, 0.35, 0.7, 1.0):
        model = ValuationModel(ModelKind.CORRELATED, rho=rho)
        vm = generate_valuations(model, 100, rng)
        corrs.append(np.corrcoef(vm.quality, vm.values.mean(axis=0))[0, 1])
    assert corrs[0] < corrs[1] < corrs[2] < corrs[3]


def test_negative_camps_are_anticorrelated():
    """With vanishing noise, the two camps' values correlate near -1."""
    model = ValuationModel(ModelKind.NEGATIVE, sigma=1e-6)
    vm = generate_valuations(model, 4, np.random.default_rng(5))
    # seats 2,4 are the even camp (track q); seats 1,3 track 1-q. Monte Carlo
    # over many gifts via a bigger draw:
    big = generate_valuations(model, 200, np.random.default_rng(6))
    even_col = big.values[1]   # seat 2
    odd_col = big.values[0]    # seat 1
    corr = np.corrcoef(even_col, odd_col)[0, 1]
    assert corr < -0.95
    np.testing.assert_allclose(vm.values[1], vm.quality, atol=1e-4)
    np.testing.assert_allclose(vm.values[0], 1.0 - vm.quality, atol=1e-4)


def test_negative_camp_means_match_quality():
    model = ValuationModel(ModelKind.NEGATIVE, sigma=0.2)
    vm = generate_valuations(model, 500, np.random.default_rng(7))
    even = vm.values[1::2]  # seats 2,4,...
    odd = vm.values[0::2]
    # interior gifts avoid clipping bias
    interior = (vm.quality > 0.3) & (vm.quality < 0.7)
    np.testing.assert_allclose(even[:, interior].mean(axis=0),
                               vm.quality[interior], atol=0.05)
    np.testing.assert_allclose(odd[:, interior].mean(axis=0),
                               1 - vm.quality[interior], atol=0.05)


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        ValuationModel(ModelKind.CORRELATED, rho=1.5)
    for bad in ({"sigma": 0.0}, {"sigma": float("nan")}, {"sigma": float("inf")},
                {"rho": float("nan")}, {"rho": True}, {"rho": "0.7"},
                {"sigma": None}, {"sigma": 10**400}):
        with pytest.raises(ConfigurationError):
            ValuationModel(ModelKind.NEGATIVE, **bad)
    with pytest.raises(ConfigurationError):
        generate_valuations(IND, 0, np.random.default_rng(0))
    model = ValuationModel(ModelKind.CORRELATED, rho=1, sigma=2)
    assert type(model.rho) is float and type(model.sigma) is float


@pytest.mark.parametrize("kind", ["independent", "negative", None, 0])
def test_a_kind_that_is_not_a_model_kind_is_rejected(kind):
    # `generate_valuations` would draw any such kind as the negative model.
    with pytest.raises(ConfigurationError, match="kind"):
        ValuationModel(kind)


def test_same_seed_regenerates_identical_matrices():
    a = generate_valuations(IND, 15, np.random.default_rng(42))
    b = generate_valuations(IND, 15, np.random.default_rng(42))
    np.testing.assert_array_equal(a.values, b.values)


# -- appearance signals -------------------------------------------------------

def test_appearance_noiseless_limit():
    q = np.linspace(0.1, 0.9, 9)
    app = generate_appearance(q, 1e-12, np.random.default_rng(8))
    np.testing.assert_allclose(app.signals, q, atol=1e-9)


def test_appearance_clips_at_boundaries():
    q = np.array([1.0] * 2000)
    app = generate_appearance(q, 0.3, np.random.default_rng(9))
    assert app.signals.max() <= 1.0
    assert (app.signals == 1.0).any()  # positive draws clip to exactly 1


def test_appearance_noise_is_unbiased_in_the_interior():
    """Sample mean of (a - q) over 1e5 interior draws is ~0 by the LLN."""
    q = np.full(100_000, 0.5)
    app = generate_appearance(q, 0.3, np.random.default_rng(10))
    tol = 3 * 0.3 / np.sqrt(100_000)
    assert abs(float((app.signals - q).mean())) < tol


def test_appearance_requires_positive_noise():
    with pytest.raises(ConfigurationError):
        generate_appearance(np.array([0.5]), 0.0, np.random.default_rng(0))


def assert_same_array(decoded, original):
    assert decoded.dtype == original.dtype and decoded.shape == original.shape
    assert decoded.tobytes() == original.tobytes()  # bit for bit, -0.0 too


def test_jsonable_round_trip_shapes(decode_block):
    """The dumps decode to the arrays exactly, through a JSON round trip,
    including values a rounded decimal would move and clipped ties."""
    vm = generate_valuations(ValuationModel(ModelKind.CORRELATED, rho=0.9),
                             6, np.random.default_rng(11))
    vm.values[0, :2] = 1.0 / 3.0, 5e-324  # 9 decimals keep neither
    assert (vm.values == 1.0).any()
    d = json.loads(json.dumps(vm.to_jsonable()))
    assert d["model"] == "correlated"
    assert d["values"]["shape"] == [6, 6] and d["quality"]["shape"] == [6]
    assert_same_array(decode_block(d["values"]), vm.values)
    assert_same_array(decode_block(d["quality"]), vm.quality)
    app = generate_appearance(vm.quality, 0.3, np.random.default_rng(12))
    a = json.loads(json.dumps(app.to_jsonable()))
    assert a["noise_sd"] == 0.3
    assert_same_array(decode_block(a["signals"]), app.signals)


def test_records_are_equal_by_dtype_shape_and_bytes():
    vm = generate_valuations(IND, 4, np.random.default_rng(5))
    app = generate_appearance(vm.quality, 0.1, np.random.default_rng(6))
    assert vm == replace(vm, values=vm.values.copy())
    assert app == replace(app, signals=app.signals.copy())
    for other in (vm.values.astype(np.float32), vm.values.reshape(2, 8),
                  vm.values + 1.0):
        assert vm != replace(vm, values=other)
    # 0.0 == -0.0 as numbers, but not as bytes.
    zero, negative_zero = vm.values.copy(), vm.values.copy()
    zero[0, 0], negative_zero[0, 0] = 0.0, -0.0
    assert replace(vm, values=zero) != replace(vm, values=negative_zero)
    assert vm != replace(vm, model=ValuationModel(ModelKind.CORRELATED))
    assert app != replace(app, noise_sd=0.2)
    assert app != replace(app, signals=app.signals[::-1].copy())
    for record in (vm, app):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
