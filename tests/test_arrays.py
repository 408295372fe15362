import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsloc import (
    InvalidArgumentError,
    Position3,
    SpatialAnglePair,
    UpaConfig,
    dft_codebook,
    spatial_doa,
    steering_derivative,
    steering_vector,
    upa_response,
    upa_response_derivatives,
)
from irsloc.errors import DegenerateGeometryError

from oracles import normalized_beam_gain

angles = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
sizes = st.integers(min_value=1, max_value=64)


def test_steering_single_element_is_one():
    assert np.allclose(steering_vector(0.73, 1), [1.0])


def test_steering_boresight_all_ones():
    assert np.allclose(steering_vector(0.0, 4), np.ones(4))


def test_steering_two_element_example():
    # direct evaluation of the centered phase progression at phi = 0.5
    expected = [cmath.exp(-1j * cmath.pi / 4), cmath.exp(1j * cmath.pi / 4)]
    assert np.allclose(steering_vector(0.5, 2), expected, atol=1e-15)


def test_steering_rejects_empty_array():
    with pytest.raises(InvalidArgumentError):
        steering_vector(0.1, 0)


@given(phi=angles, n=sizes)
@settings(max_examples=60, deadline=None)
def test_steering_norm_is_element_count(phi, n):
    u = steering_vector(phi, n)
    assert abs(np.vdot(u, u).real - n) <= 1e-12 * n


@given(phi=angles, n=sizes, sign=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=60, deadline=None)
def test_steering_parity_ambiguity(phi, n, sign):
    u = steering_vector(phi, n)
    shifted = steering_vector(phi + 2.0 * sign, n)
    expected = -u if n % 2 == 0 else u
    assert np.allclose(shifted, expected, atol=1e-9)


def test_derivative_single_element_is_zero():
    assert np.allclose(steering_derivative(1.3, 1), [0.0])


def test_derivative_orthogonal_to_steering():
    for phi in (-0.7, 0.0, 0.333, 1.9):
        du = steering_derivative(phi, 3)
        u = steering_vector(phi, 3)
        assert abs(np.vdot(du, u)) < 1e-12 * np.linalg.norm(du) * np.linalg.norm(u)


def test_derivative_self_product_two_elements():
    # (pi^2/4) * ((1)^2 + (-1)^2) = pi^2/2, cross-checked against finite difference
    du = steering_derivative(0.41, 2)
    assert abs(np.vdot(du, du).real - np.pi**2 / 2) < 1e-12 * np.pi**2


@given(phi=angles, n=st.integers(min_value=1, max_value=24))
@settings(max_examples=40, deadline=None)
def test_derivative_matches_central_difference(phi, n):
    h = 1e-6
    fd = (steering_vector(phi + h, n) - steering_vector(phi - h, n)) / (2 * h)
    assert np.max(np.abs(steering_derivative(phi, n) - fd)) < 1e-6


def test_upa_boresight_all_ones():
    resp = upa_response(SpatialAnglePair(0.0, 0.0), UpaConfig(2, 2))
    assert np.allclose(resp, np.ones(4))


def test_upa_norm_large_array():
    resp = upa_response(SpatialAnglePair(0.37, -0.81), UpaConfig(20, 20))
    assert abs(np.vdot(resp, resp).real - 400) < 1e-12 * 400


def test_upa_is_kronecker_of_line_arrays():
    # explicit double-loop evaluation as the independent oracle
    cfg = UpaConfig(2, 2)
    resp = upa_response(SpatialAnglePair(0.5, 0.0), cfg)
    u_y = steering_vector(0.5, 2)
    u_z = steering_vector(0.0, 2)
    manual = np.array([u_y[i] * u_z[j] for i in range(2) for j in range(2)])
    assert np.allclose(resp, manual, atol=1e-15)


def test_upa_derivative_orthogonality_identities():
    rng = np.random.default_rng(1)
    for _ in range(25):
        cfg = UpaConfig(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        ang = SpatialAnglePair(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        a = upa_response(ang, cfg)
        da_mu, da_nu = upa_response_derivatives(ang, cfg)
        scale = max(np.linalg.norm(da_mu) * np.linalg.norm(da_nu), 1.0)
        assert abs(np.vdot(da_mu, da_nu)) < 1e-10 * scale
        assert abs(np.vdot(da_mu, a)) < 1e-10 * max(np.linalg.norm(da_mu) * np.linalg.norm(a), 1.0)
        assert abs(np.vdot(a, da_nu)) < 1e-10 * max(np.linalg.norm(a) * np.linalg.norm(da_nu), 1.0)
        assert abs(np.vdot(a, a).real - cfg.n) < 1e-12 * cfg.n


def test_upa_derivative_self_product_3x2():
    # (pi^2 * 2 / 4) * sum_{k=1..3}(3 - 2k + 1)^2 = (pi^2/2) * 8 = 4 pi^2
    da_mu, _ = upa_response_derivatives(SpatialAnglePair(0.21, -0.4), UpaConfig(3, 2))
    assert abs(np.vdot(da_mu, da_mu).real - 4 * np.pi**2) < 1e-10 * 4 * np.pi**2


def test_upa_derivative_matches_central_difference():
    cfg = UpaConfig(4, 3)
    mu, nu = 0.3, -0.55
    h = 1e-6
    da_mu, da_nu = upa_response_derivatives(SpatialAnglePair(mu, nu), cfg)
    fd_mu = (upa_response(SpatialAnglePair(mu + h, nu), cfg)
             - upa_response(SpatialAnglePair(mu - h, nu), cfg)) / (2 * h)
    fd_nu = (upa_response(SpatialAnglePair(mu, nu + h), cfg)
             - upa_response(SpatialAnglePair(mu, nu - h), cfg)) / (2 * h)
    assert np.max(np.abs(da_mu - fd_mu)) < 1e-6
    assert np.max(np.abs(da_nu - fd_nu)) < 1e-6


def test_spatial_doa_reference_values():
    # direction cosines of the documented sites, rounded figures 0.8165 / -0.4082
    doa = spatial_doa(Position3(0, 0, 5), Position3(-5, 10, 0))
    assert doa.mu == pytest.approx(0.8165, abs=1e-4)
    assert doa.nu == pytest.approx(-0.4082, abs=1e-4)
    d = np.linalg.norm([5, 10, 5])
    assert doa.mu == pytest.approx(10 / d, rel=1e-12)

    doa2 = spatial_doa(Position3(-20, 0, 3), Position3(-20, 2, 0))
    assert doa2.mu == pytest.approx(0.5547, abs=1e-4)
    assert doa2.nu == pytest.approx(-0.8321, abs=1e-4)


def test_spatial_doa_boresight_along_x():
    doa = spatial_doa(Position3(0, 0, 0), Position3(1, 0, 0))
    assert doa.mu == 0.0 and doa.nu == 0.0


def test_spatial_doa_scales_with_spacing():
    doa_half = spatial_doa(Position3(0, 0, 0), Position3(1, 1, 0), 0.5)
    doa_quarter = spatial_doa(Position3(0, 0, 0), Position3(1, 1, 0), 0.25)
    assert doa_quarter.mu == pytest.approx(doa_half.mu / 2, rel=1e-12)


def test_spatial_doa_coincident_points_rejected():
    with pytest.raises(DegenerateGeometryError):
        spatial_doa(Position3(1, 2, 3), Position3(1, 2, 3))


def test_dft_codebook_trivial():
    assert np.allclose(dft_codebook(1, 1, 1.0), [[1.0]])


def test_dft_codebook_identity_coherence():
    w = dft_codebook(2, 2, 2.0)
    assert np.allclose(w @ w.conj().T / 2, np.eye(2), atol=1e-14)


def test_dft_codebook_trace_is_power():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 12))
        t = int(rng.integers(1, 30))
        power = float(rng.uniform(0.1, 5.0))
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                w = dft_codebook(n, t, power)
        trace = np.trace(w @ w.conj().T / t).real
        assert trace == pytest.approx(power, rel=1e-12)


@pytest.mark.parametrize("n, t", [(1, 1), (5, 1), (4, 8), (3, 7), (6, 4), (10, 60), (400, 60)])
def test_dft_codebook_matches_direct_formula(n, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # t < n warns
        w = dft_codebook(n, t, 2.5)
    k = np.arange(n)[:, None]
    tau = np.arange(t)[None, :]
    direct = np.sqrt(2.5 / n) * np.exp(-2j * np.pi * tau * k / t)
    assert w.shape == (n, t)
    assert np.max(np.abs(w - direct)) < 1e-12


def test_dft_codebook_rejects_nonpositive_power():
    with pytest.raises(InvalidArgumentError):
        dft_codebook(4, 8, 0.0)


@pytest.mark.parametrize("power", [float("nan"), float("inf"), -float("inf")])
def test_dft_codebook_rejects_non_finite_power(power):
    with pytest.raises(InvalidArgumentError, match=f"transmit power {power!r} "):
        dft_codebook(4, 8, power)


def test_dft_codebook_warns_when_undersampled():
    for _ in range(2):  # the cached table must not swallow the warning
        with pytest.warns(UserWarning):
            dft_codebook(8, 4, 1.0)


def test_beam_gain_peak_and_null():
    assert normalized_beam_gain(0.0, 0.0, 13) == pytest.approx(1.0, rel=1e-12)
    assert normalized_beam_gain(2.0 / 10, 0.0, 10) == pytest.approx(0.0, abs=1e-12)


def test_beam_gain_sidelobes_shrink_with_array_size():
    def max_sidelobe(n_bar):
        offs = np.linspace(2.0 / n_bar + 1e-3, 1.0, 400)
        return max(normalized_beam_gain(d, 0.0, n_bar) for d in offs)

    assert max_sidelobe(20) < max_sidelobe(5)


def test_upa_rejects_fractional_counts_and_bad_spacing():
    for bad in ({"n_y": 2.5, "n_z": 4}, {"n_y": 4, "n_z": 4.0}, {"n_y": True, "n_z": 4},
                {"n_y": 4, "n_z": 4, "spacing_over_lambda": float("nan")},
                {"n_y": 4, "n_z": 4, "spacing_over_lambda": float("inf")},
                {"n_y": 4, "n_z": 4, "spacing_over_lambda": 0.0}):
        with pytest.raises(InvalidArgumentError):
            UpaConfig(**bad)
    assert UpaConfig(np.int64(3), 2, 0.25).n == 6


def test_position_rejects_non_numbers_and_non_finite_coordinates():
    for bad in ((0, 0, True), (0, 0, "5"), (None, 0, 0), (0, 1j, 0), (0, np.bool_(True), 0),
                (0, 0, float("nan")), (float("inf"), 0, 0), (0, -np.inf, 0)):
        with pytest.raises(InvalidArgumentError, match="finite real coordinates"):
            Position3(*bad)
    assert Position3(1, np.int64(2), np.float32(3.5)).as_array().tolist() == [1.0, 2.0, 3.5]
