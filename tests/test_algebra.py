"""Spectral helpers: hand-computed eigenpairs, exhaustive primitivity."""
import itertools

import numpy as np
import pytest

from conftest import SHIPPED, spec_path
from mbpm import SpectralData, criticality, is_primitive, load_spec, odot, params_from_spec, perron


def brute_primitive(m):
    """Scan boolean powers up to the Wielandt bound for an all-positive one."""
    b = (np.asarray(m) > 0).astype(np.uint8)
    p = b.shape[0]
    bound = (p - 1) ** 2 + 1
    acc = b.copy()
    for _ in range(bound):
        if acc.all():
            return True
        acc = np.minimum(acc @ b, 1)
    return bool(acc.all())


def test_odot_weighted_matrix_sum():
    mats = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 2.0], [2.0, 0.0]]])
    out = odot([3.0, 0.5], mats)
    assert np.allclose(out, [[3.0, 1.0], [1.0, 3.0]])


def test_odot_shape_mismatch():
    with pytest.raises(ValueError):
        odot([1.0, 2.0, 3.0], np.zeros((2, 2, 2)))


def test_perron_symmetric_half_matrix():
    sd = perron([[0.5, 0.5], [0.5, 0.5]])
    assert abs(sd.rho - 1.0) < 1e-12
    assert np.allclose(sd.u, [0.5, 0.5], atol=1e-10)
    assert np.allclose(sd.v, [1.0, 1.0], atol=1e-10)


def test_perron_row_stochastic_hand_values():
    # Rows sum to one, so rho = 1 and v = (1, 1); u solves u^T m = u^T.
    sd = perron([[0.2, 0.8], [0.4, 0.6]])
    assert abs(sd.rho - 1.0) < 1e-10
    assert np.allclose(sd.u, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)
    assert np.allclose(sd.v, [1.0, 1.0], atol=1e-9)


def test_perron_scaling_homogeneity():
    m = np.array([[0.3, 0.7], [0.6, 0.4]])
    base = perron(m)
    doubled = perron(2.0 * m)
    assert abs(doubled.rho - 2.0 * base.rho) < 1e-9
    assert np.allclose(doubled.u, base.u, atol=1e-9)
    assert np.allclose(doubled.v, base.v, atol=1e-9)


def test_perron_residuals_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = int(rng.integers(1, 6))
        m = rng.random((p, p)) + 0.05
        sd = perron(m)
        assert isinstance(sd, SpectralData)
        assert np.abs(sd.u @ m - sd.rho * sd.u).max() < 1e-10
        assert np.abs(m @ sd.v - sd.rho * sd.v).max() < 1e-10
        assert abs(sd.u.sum() - 1.0) < 1e-12
        assert abs(sd.u @ sd.v - 1.0) < 1e-12
        assert (sd.u > 0).all() and (sd.v > 0).all()


def test_perron_iterates_to_a_repeat_not_to_a_tolerance():
    # a stop at a step below 1e-12 left v 4.5e-13 short of (8/7, 6/7) here,
    # and with it nu = 0.49999999999999994 and the gamma shape 4.000000000000001
    spec = load_spec(spec_path("two_type_coupled"))
    assert spec.spectral().v.tolist() == [8 / 7, 6 / 7]
    params = params_from_spec(spec)
    assert (params.nu, params.gamma_shape, params.gamma_scale) == (0.5, 4.0, 0.25)


# rho, u and v of every shipped document with Perron data, to the last bit
PERRON_DATA = {
    "gamma_single_type": (1.0, [1.0], [1.0]),
    "pure_emigration": (1.0, [0.5, 0.5], [1.0, 1.0]),
    "small_support": (1.2274917217635375, [0.5687293044088437, 0.43127069559115633],
                      [1.2284927963857741, 0.6986798535597566]),
    "sqrt_drift_single_type": (1.0, [1.0], [1.0]),
    "two_type_coupled": (1.0, [0.5, 0.5], [8 / 7, 6 / 7]),
    "two_type_mixed": (1.0, [0.5, 0.5], [1.0, 1.0]),
}


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_perron_data_is_pinned(name):
    spec = load_spec(spec_path(name))
    if name not in PERRON_DATA:
        with pytest.raises(ValueError, match="primitive"):
            spec.spectral()
        return
    sd = spec.spectral()
    assert (sd.rho, sd.u.tolist(), sd.v.tolist()) == PERRON_DATA[name]


def test_perron_rejects_imprimitive():
    with pytest.raises(ValueError):
        perron([[0.0, 1.0], [1.0, 0.0]])


def test_is_primitive_known_cases():
    assert is_primitive([[1.0, 1.0], [1.0, 0.0]])  # Fibonacci pattern
    assert not is_primitive([[0.0, 1.0], [1.0, 0.0]])  # period two
    assert not is_primitive(np.zeros((3, 3)))
    assert is_primitive([[2.0]])
    assert not is_primitive([[0.0]])
    assert not is_primitive(np.triu(np.ones((3, 3))))  # reducible


def test_is_primitive_at_256_types():
    # 256 paths between two types must not count as none: a uint8 product wraps there
    assert is_primitive(np.ones((256, 256)))
    assert not is_primitive(np.roll(np.eye(256), 1, axis=0))  # a 256-cycle has period 256


def test_is_primitive_input_validation():
    with pytest.raises(ValueError):
        is_primitive(np.ones((2, 3)))
    with pytest.raises(ValueError):
        is_primitive([[-1.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_is_primitive_exhaustive_small(p):
    for bits in itertools.product([0.0, 1.0], repeat=p * p):
        m = np.array(bits).reshape(p, p)
        assert is_primitive(m) == brute_primitive(m), m


def test_is_primitive_random_dim4():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = (rng.random((4, 4)) < 0.35).astype(float)
        assert is_primitive(m) == brute_primitive(m), m


def test_criticality_thresholds():
    assert criticality([[0.5, 0.5], [0.5, 0.5]]) == "critical"
    assert criticality([[0.5, 0.6], [0.5, 0.5]]) == "supercritical"
    assert criticality([[0.5, 0.4], [0.5, 0.5]]) == "subcritical"
    assert criticality([[1.0 + 1e-12]]) == "critical"
