"""The in-package special functions against ``scipy.special``.

``ndtr`` and ``ndtri`` must return scipy's bytes, NaN signs included, on
every input, for scalar and array input alike, and so must the pure-math
``ndtr_float``; ``expit`` must stay within 4 ulp of scipy's.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sc

from strata_bounds._special import expit, ndtr, ndtr_float, ndtri

SQRT2 = math.sqrt(2.0)
EXPM2 = 0.13533528323661269189


def _around(*points):
    """Each point with its two floating-point neighbours."""
    return [v for p in points for v in (np.nextafter(p, -np.inf), p,
                                         np.nextafter(p, np.inf))]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


NDTR_EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
    *_around(SQRT2, -SQRT2, 8 * SQRT2, -8 * SQRT2, 1.0, -1.0,
             37.5, -37.5, 38.5, -38.5, 9.0)])

NDTRI_EDGES = np.array([
    0.0, -0.0, 1.0, np.nan, -np.nan, np.inf, -np.inf, -1.0, 2.0, -1e-300,
    1.0 + 2.0 ** -52, 5e-324, 1e-320, 1e-300, 1e-100, 1.0 - 1e-10,
    1.0 - 1e-16, 1.0 - 2.0 ** -53, 0.5, math.exp(-32.0),
    *_around(EXPM2, 1.0 - EXPM2, math.exp(-32.0))])


@pytest.fixture(scope="module")
def ndtr_inputs():
    rng = np.random.default_rng(20241)
    draws = [rng.normal(0.0, scale, 125_000)
             for scale in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)]
    return np.concatenate([NDTR_EDGES, *draws, rng.uniform(-60, 60, 125_000)])


@pytest.fixture(scope="module")
def ndtri_inputs():
    rng = np.random.default_rng(20242)
    return np.concatenate([NDTRI_EDGES, rng.random(300_000),
                           10.0 ** rng.uniform(-300, 0, 300_000),
                           1.0 - 10.0 ** rng.uniform(-16, 0, 300_000),
                           rng.uniform(-0.5, 1.5, 100_000)])


def test_ndtr_array_matches_scipy_bytes(ndtr_inputs):
    assert ndtr_inputs.size >= 10 ** 6
    mismatch = _bits(ndtr(ndtr_inputs)) != _bits(sc.ndtr(ndtr_inputs))
    assert not mismatch.any(), ndtr_inputs[mismatch][:5]


def test_ndtri_array_matches_scipy_bytes(ndtri_inputs):
    assert ndtri_inputs.size >= 10 ** 6
    mismatch = _bits(ndtri(ndtri_inputs)) != _bits(sc.ndtri(ndtri_inputs))
    assert not mismatch.any(), ndtri_inputs[mismatch][:5]


@pytest.mark.parametrize("fn,ref,edges,fixture", [
    (ndtr, sc.ndtr, NDTR_EDGES, "ndtr_inputs"),
    (ndtri, sc.ndtri, NDTRI_EDGES, "ndtri_inputs")], ids=["ndtr", "ndtri"])
@pytest.mark.parametrize("wrap", [float, np.float64, np.array],
                         ids=["float", "float64", "0-d"])
def test_scalar_path_matches_scipy_bytes(request, fn, ref, edges, fixture,
                                         wrap):
    inputs = np.concatenate([edges, request.getfixturevalue(fixture)[::50]])
    got = [fn(wrap(v)) for v in inputs.tolist()]
    assert all(type(v) is np.float64 for v in got)
    mismatch = _bits(got) != _bits(ref(inputs))
    assert not mismatch.any(), inputs[mismatch][:5]


def test_ndtr_float_matches_scipy_bytes(ndtr_inputs):
    inputs = np.concatenate([NDTR_EDGES, ndtr_inputs[::10]])
    got = [ndtr_float(v) for v in inputs.tolist()]
    assert all(type(v) is float for v in got)
    mismatch = _bits(got) != _bits(sc.ndtr(inputs))
    assert not mismatch.any(), inputs[mismatch][:5]


@pytest.mark.parametrize("fn,ref,values", [
    (ndtr, sc.ndtr, [[-1.0, 0.3], [2.5, 9.0]]),
    (ndtri, sc.ndtri, [[0.01, 0.3], [0.9, 0.99999]])], ids=["ndtr", "ndtri"])
def test_array_path_keeps_shape_and_dtype(fn, ref, values):
    got = fn(values)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == (2, 2)
    np.testing.assert_array_equal(_bits(got), _bits(ref(values)))
    assert fn(np.empty(0)).shape == (0,)
    assert fn([1]).dtype == np.float64


def test_expit_within_4_ulp_of_scipy():
    rng = np.random.default_rng(20243)
    x = np.concatenate([rng.normal(0.0, scale, 250_000)
                        for scale in (1.0, 5.0, 40.0, 300.0)])
    got, want = expit(x), sc.expit(x)
    # both lie in [0, 1], where the integer view orders the floats
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4


def test_expit_exact_at_special_values():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    np.testing.assert_array_equal(_bits(expit(x)), _bits(sc.expit(x)))
    assert type(expit(0.5)) is np.float64


def test_expit_saturates_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(expit(np.array([1000.0, -1000.0])),
                                      [1.0, 0.0])
        assert expit(-1000.0) == 0.0
