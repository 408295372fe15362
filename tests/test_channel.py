import numpy as np
import pytest

from irsloc import (
    InvalidArgumentError,
    PathKind,
    Position3,
    SceneGeometry,
    UpaConfig,
    cascade_power_closed_form,
    channel_b2i,
    channel_btb,
    channel_bti,
    channel_iti,
    dbm_to_watts,
    dbsm_to_m2,
    path_gain,
    stage2_effective_channel,
    upa_response,
)
from irsloc.arrays import SPEED_OF_LIGHT
from irsloc.errors import DegenerateGeometryError
from irsloc.stage2 import matched_theta

from conftest import random_desk_scene


def test_unit_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(-80.0) == pytest.approx(1e-11, rel=1e-12)
    assert dbsm_to_m2(7.0) == pytest.approx(5.011872336272722, rel=1e-12)


def test_path_gain_magnitudes_match_formulas(single_scene):
    lam = SPEED_OF_LIGHT / 750e6
    kappa = 10**0.7
    d_bt = np.linalg.norm([20, 2, 5])
    d_bi = np.linalg.norm([20, 0, 2])
    d_it = np.linalg.norm([0, 2, 3])

    btb = path_gain(PathKind.BTB, single_scene, target_index=0)
    assert abs(btb.value) == pytest.approx(np.sqrt(lam**2 * kappa / (64 * np.pi**3 * d_bt**4)), rel=1e-12)
    b2i = path_gain(PathKind.B2I, single_scene, irs_index=0)
    assert abs(b2i.value) == pytest.approx(lam / (4 * np.pi * d_bi), rel=1e-12)
    assert abs(b2i.value) == pytest.approx(1.582e-3, rel=1e-3)
    iti = path_gain(PathKind.ITI, single_scene, irs_index=0, target_index=0)
    assert abs(iti.value) == pytest.approx(np.sqrt(lam**2 * kappa / (64 * np.pi**3 * d_it**4)), rel=1e-12)
    bti = path_gain(PathKind.BTI, single_scene, irs_index=0, target_index=0)
    assert abs(bti.value) == pytest.approx(
        np.sqrt(lam**2 * kappa / (64 * np.pi**3 * d_bt**2 * d_it**2)), rel=1e-12)


def test_path_gain_phases_match_path_lengths(single_scene):
    lam = single_scene.wavelength
    d_bt = single_scene.d_b2t(0)
    btb = path_gain(PathKind.BTB, single_scene, target_index=0)
    expected = -4 * np.pi * d_bt / lam
    assert np.angle(btb.value) == pytest.approx(np.angle(np.exp(1j * expected)), abs=1e-9)


def _scaled_scene(scale):
    return SceneGeometry(
        bs=Position3(0, 0, 5 * scale),
        irs=[Position3(-20 * scale, 0, 3 * scale)],
        targets=[Position3(-20 * scale, 2 * scale, 0)],
        bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(4, 4)],
    )


def test_distance_power_laws():
    g1, g2 = _scaled_scene(1.0), _scaled_scene(2.0)
    btb1 = abs(path_gain(PathKind.BTB, g1, target_index=0).value)
    btb2 = abs(path_gain(PathKind.BTB, g2, target_index=0).value)
    assert btb2 == pytest.approx(btb1 / 4, rel=1e-12)
    b2i1 = abs(path_gain(PathKind.B2I, g1, irs_index=0).value)
    b2i2 = abs(path_gain(PathKind.B2I, g2, irs_index=0).value)
    assert b2i2 == pytest.approx(b2i1 / 2, rel=1e-12)


def test_zero_distance_rejected():
    sites = dict(bs=Position3(0, 0, 0), bs_upa=UpaConfig(2, 2), irs_upa=[UpaConfig(2, 2)])
    with pytest.raises(InvalidArgumentError, match=r"irs\[0\] coincides with the BS"):
        SceneGeometry(irs=[Position3(0, 0, 0)], targets=[Position3(1, 1, 1)], **sites)
    g = SceneGeometry(irs=[Position3(1, 1, 1)], targets=[Position3(1, 1, 1)], **sites)
    with pytest.raises(DegenerateGeometryError):
        path_gain(PathKind.ITI, g, irs_index=0, target_index=0)


@pytest.mark.parametrize("builder,kwargs", [
    (channel_btb, {"target_index": 0}),
    (channel_b2i, {"irs_index": 0}),
    (channel_iti, {"irs_index": 0, "target_index": 0}),
    (channel_bti, {"irs_index": 0, "target_index": 0}),
])
def test_channels_are_rank_one(single_scene, builder, kwargs):
    h = builder(single_scene, **kwargs)
    s = np.linalg.svd(h, compute_uv=False)
    assert s[1] < 1e-10 * s[0]


def test_reciprocal_channels_are_symmetric(single_scene):
    h_btb = channel_btb(single_scene, 0)
    h_iti = channel_iti(single_scene, 0, 0)
    assert np.array_equal(h_btb, h_btb.T)
    assert np.array_equal(h_iti, h_iti.T)


def test_channel_frobenius_norms(single_scene):
    n_bs = single_scene.n_bs
    n_r = single_scene.n_irs(0)
    h_btb = channel_btb(single_scene, 0)
    beta = path_gain(PathKind.BTB, single_scene, target_index=0).value
    assert np.linalg.norm(h_btb, "fro") ** 2 == pytest.approx(abs(beta) ** 2 * n_bs**2, rel=1e-12)
    h_b2i = channel_b2i(single_scene, 0)
    beta = path_gain(PathKind.B2I, single_scene, irs_index=0).value
    assert np.linalg.norm(h_b2i, "fro") ** 2 == pytest.approx(abs(beta) ** 2 * n_r * n_bs, rel=1e-12)


def test_effective_channel_rejects_amplitude_modulation(single_scene):
    theta = np.full(single_scene.n_irs(0), 0.5 + 0j)
    with pytest.raises(InvalidArgumentError):
        stage2_effective_channel(single_scene, 0, 0, theta)


def test_effective_channel_matches_dense_assembly():
    # brute-force matrix products as the oracle, random small scene
    g = random_desk_scene(7, max_side=3)
    rng = np.random.default_rng(2)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, g.n_irs(0)))
    h_b2i = channel_b2i(g, 0)
    h_iti = channel_iti(g, 0, 0)
    h_bti = channel_bti(g, 0, 0)
    d = np.diag(theta)
    expected = h_b2i.T @ d @ h_iti @ d @ h_b2i + h_b2i.T @ d @ h_bti + h_bti.T @ d @ h_b2i
    got = stage2_effective_channel(g, 0, 0, theta)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-15 * np.abs(expected).max())


def test_matched_cascade_power_identities():
    # Frobenius norms of the dense cascades against the closed forms
    for seed in range(20):
        g = random_desk_scene(seed)
        b_in = upa_response(g.bs_irs_aoa(0), g.irs_upa[0])
        b_out = upa_response(g.irs_target_doa(0, 0), g.irs_upa[0])
        theta = matched_theta(b_in, b_out)
        h_b2i = channel_b2i(g, 0)
        h_iti = channel_iti(g, 0, 0)
        h_bti = channel_bti(g, 0, 0)
        d = np.diag(theta)
        p1_brute = np.linalg.norm(h_b2i.T @ d @ h_iti @ d @ h_b2i, "fro") ** 2
        p2_brute = 2 * np.linalg.norm(h_b2i.T @ d @ h_bti, "fro") ** 2
        p1, p2 = cascade_power_closed_form(g, 0, 0)
        assert p1_brute == pytest.approx(p1, rel=1e-10)
        assert p2_brute == pytest.approx(p2, rel=1e-10)


def test_rcs_and_upa_count_validation():
    with pytest.raises(InvalidArgumentError):
        SceneGeometry(bs=Position3(0, 0, 0), irs=[Position3(1, 0, 0)], targets=[Position3(2, 0, 0)],
                      bs_upa=UpaConfig(2, 2), irs_upa=[])
    with pytest.raises(InvalidArgumentError):
        SceneGeometry(bs=Position3(0, 0, 0), irs=[Position3(1, 0, 0)], targets=[Position3(2, 0, 0)],
                      bs_upa=UpaConfig(2, 2), irs_upa=[UpaConfig(2, 2)], rcs_dbsm=[1.0, 2.0])


def test_scene_rejects_non_finite_carrier_and_rcs():
    sites = dict(bs=Position3(0, 0, 0), irs=[Position3(1, 0, 0)], targets=[Position3(2, 0, 0)],
                 bs_upa=UpaConfig(2, 2), irs_upa=[UpaConfig(2, 2)])
    # a scene built in code gets the number checks that the config schema applies, too
    for bad in ({"carrier_freq_hz": float("nan")}, {"carrier_freq_hz": float("inf")},
                {"rcs_dbsm": [float("nan")]}, {"rcs_dbsm": [float("inf")]},
                {"carrier_freq_hz": True}, {"carrier_freq_hz": "750e6"},
                {"rcs_dbsm": [True]}, {"rcs_dbsm": ["7"]}, {"rcs_dbsm": [None]}):
        with pytest.raises(InvalidArgumentError):
            SceneGeometry(**sites, **bad)
    scene = SceneGeometry(**sites, carrier_freq_hz=np.float64(7.5e8), rcs_dbsm=[np.int64(7)])
    assert scene.wavelength == pytest.approx(0.3997, rel=1e-4)

